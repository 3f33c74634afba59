"""Subgroups of homocyclic abelian p-groups (Z/p^K)^h.

Subgroups are stored as canonical sorted element lists; at desk scale the
ambient group never exceeds 10^4 elements, so there is no need for
Smith-normal-form canonicalization.  The closed-form sublattice count is
kept deliberately independent of the brute-force enumeration so that each
can act as an oracle for the other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import BadParameters, InternalMismatch, NotPrime, ResourceLimit

AMBIENT_CAP = 10 ** 4
# Trial division up to sqrt(PRIME_CAP) takes about 0.1 s.
PRIME_CAP = 10 ** 12
# Bound on h * (h + m) * bit_length(p) for count_sublattices; see there.
COUNT_SIZE_CAP = 2 * 10 ** 5


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int):
    """Raise NotPrime unless p is prime; above PRIME_CAP, where trial
    division would run for seconds, raise ResourceLimit instead."""
    if p > PRIME_CAP:
        raise ResourceLimit("p = %d exceeds the primality-test cap %d" % (p, PRIME_CAP))
    if not is_prime(p):
        raise NotPrime("%r is not prime" % (p,))


def power_exceeds(p: int, e: int, cap: int) -> bool:
    """p**e > cap for p >= 2, without forming p**e when e is large."""
    return e > cap.bit_length() or p ** e > cap


@dataclass(frozen=True)
class Ambient:
    """The group (Z/p^k)^h, elements represented as h-tuples of ints mod p^k."""

    p: int
    k: int
    h: int

    def __post_init__(self):
        check_prime(self.p)
        if self.k < 0 or self.h < 1:
            raise BadParameters("need k >= 0 and h >= 1")

    @property
    def modulus(self) -> int:
        return self.p ** self.k

    @property
    def order(self) -> int:
        return self.modulus ** self.h

    def zero(self):
        return (0,) * self.h

    def add(self, x, y):
        q = self.modulus
        return tuple((a + b) % q for a, b in zip(x, y))

    def neg(self, x):
        q = self.modulus
        return tuple((-a) % q for a in x)

    def scale(self, c, x):
        q = self.modulus
        return tuple((c * a) % q for a in x)

    def pairing(self, x, y) -> int:
        """sum(x_i * y_i) mod p^k."""
        return sum(a * b for a, b in zip(x, y)) % self.modulus

    def elements(self):
        return _ambient_elements(self)

    def element_order(self, x) -> int:
        q = self.modulus
        if q == 1:
            return 1
        return math.lcm(*(q // math.gcd(a, q) for a in x))


@lru_cache(maxsize=None)
def _ambient_elements(ambient: Ambient):
    if ambient.order > AMBIENT_CAP:
        raise ResourceLimit(
            "ambient group of order %d exceeds cap %d" % (ambient.order, AMBIENT_CAP)
        )
    q = ambient.modulus
    return tuple(itertools.product(range(q), repeat=ambient.h))


class AbSubgroup:
    """A subgroup of an Ambient, canonically a sorted tuple of elements."""

    __slots__ = ("ambient", "elements", "_eset")

    def __init__(self, ambient: Ambient, elements):
        self.ambient = ambient
        elems = tuple(sorted(set(elements)))
        self.elements = elems
        self._eset = frozenset(elems)
        if ambient.zero() not in self._eset:
            raise ValueError("subgroup must contain zero")

    @classmethod
    def span(cls, ambient: Ambient, gens) -> "AbSubgroup":
        """Additive closure of a generating set."""
        members = {ambient.zero()}
        for g in gens:
            g = tuple(v % ambient.modulus for v in g)
            if g in members:
                continue
            # extend the current span by the cyclic group generated by g
            shifts = []
            cur = g
            while cur not in members:
                shifts.append(cur)
                cur = ambient.add(cur, g)
            new = set(members)
            for s in shifts:
                new.update(ambient.add(s, m) for m in members)
            members = new
        return cls(ambient, members)

    @classmethod
    def trivial(cls, ambient: Ambient) -> "AbSubgroup":
        return cls(ambient, [ambient.zero()])

    @classmethod
    def full(cls, ambient: Ambient) -> "AbSubgroup":
        return cls(ambient, ambient.elements())

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.ambient.order // self.order

    def __contains__(self, x) -> bool:
        return x in self._eset

    def __eq__(self, other):
        return (
            isinstance(other, AbSubgroup)
            and self.ambient == other.ambient
            and self.elements == other.elements
        )

    def __lt__(self, other):
        return self.elements < other.elements

    def __hash__(self):
        return hash((self.ambient, self.elements))

    def __repr__(self):
        return "AbSubgroup(order=%d, gens=%s)" % (self.order, self.generators())

    def is_closed(self) -> bool:
        for x in self.elements:
            if self.ambient.neg(x) not in self._eset:
                return False
            for y in self.elements:
                if self.ambient.add(x, y) not in self._eset:
                    return False
        return True

    def generators(self):
        """Deterministic generating list: greedily take minimal new elements."""
        gens = []
        span = {self.ambient.zero()}
        for x in self.elements:
            if x in span:
                continue
            gens.append(x)
            span = set(AbSubgroup.span(self.ambient, gens).elements)
            if len(span) == self.order:
                break
        return gens

    def intersection(self, other: "AbSubgroup") -> "AbSubgroup":
        return AbSubgroup(self.ambient, self._eset & other._eset)

    def annihilator(self) -> "AbSubgroup":
        """{y : <x, y> = 0 mod p^k for all x in self}."""
        amb = self.ambient
        gens = self.generators()
        out = [
            y
            for y in amb.elements()
            if all(amb.pairing(x, y) == 0 for x in gens)
        ]
        return AbSubgroup(amb, out)

    def id_token(self) -> str:
        gens = self.generators()
        if not gens:
            return "U<0>"
        return "U<" + "|".join(".".join(str(v) for v in g) for g in gens) + ">"


def annihilator(subgroup: AbSubgroup) -> AbSubgroup:
    return subgroup.annihilator()


def _subgroup_levels(ambient: Ambient, top: int):
    """Levels 0..top of the subgroup lattice: level m lists the order-p^m
    subgroups, canonically sorted.  Nothing is kept between calls.

    Level m+1 subgroups are obtained from level-m ones by adjoining an
    element x with p*x in the subgroup (every maximal chain realizes this),
    deduplicating by element list.  The candidates for a subgroup S are read
    off the fibres of multiplication by p, ``preimage[y] = [x : p*x = y]``,
    built once per call: they are the x outside S in the fibres over the
    elements of S, so no level rescans the ambient group.  Because p*x lies
    in S, the extension S + <x> is the union of the p cosets S + i*x for
    i < p.  Candidates are taken in ascending order and every element of a
    freshly built extension is marked as covered, so each extension is built
    at most p-1 times per maximal subgroup.  Levels above k*h are empty and
    are not listed.
    """
    if ambient.order > AMBIENT_CAP:
        raise ResourceLimit(
            "ambient group of order %d exceeds cap %d" % (ambient.order, AMBIENT_CAP)
        )
    p = ambient.p
    levels = [(AbSubgroup.trivial(ambient),)]
    top = min(top, ambient.k * ambient.h)
    preimage = {}
    for x in ambient.elements():
        preimage.setdefault(ambient.scale(p, x), []).append(x)
    while len(levels) <= top:
        found = {}
        for sub in levels[-1]:
            eset = sub._eset
            candidates = sorted(
                x for y in sub.elements for x in preimage.get(y, ()) if x not in eset
            )
            covered = set()
            for x in candidates:
                if x in covered:
                    continue
                members = set(eset)
                shift = x
                for _ in range(1, p):
                    members.update(ambient.add(s, shift) for s in sub.elements)
                    shift = ambient.add(shift, x)
                bigger = AbSubgroup(ambient, members)
                found.setdefault(bigger.elements, bigger)
                covered.update(bigger._eset)
        levels.append(tuple(sorted(found.values())))
    return levels


def _order_exponent(order: int, p: int) -> int:
    m = 0
    tmp = order
    while tmp > 1:
        if tmp % p:
            raise BadParameters("order %d is not a power of %d" % (order, p))
        tmp //= p
        m += 1
    return m


def enumerate_subgroups(h: int, p: int, K: int, order: int):
    """All subgroups of (Z/p^K)^h with the given order, canonically sorted."""
    ambient = Ambient(p, K, h)
    return subgroups_of_ambient(ambient, order)


def subgroups_of_ambient(ambient: Ambient, order=None):
    """The subgroups of the given order, or all of them level by level."""
    if order is None:
        levels = _subgroup_levels(ambient, ambient.k * ambient.h)
        return [s for level in levels for s in level]
    m = _order_exponent(order, ambient.p)
    levels = _subgroup_levels(ambient, m)
    return list(levels[m]) if m < len(levels) else []


def count_sublattices(h: int, p: int, m: int) -> int:
    """Number of order-p^m subgroups of the h-fold Pruefer p-group.

    Closed form: the Gaussian binomial [m+h-1 choose h-1]_p, in O(h)
    big-int operations.  It is checked on every call against the count of
    index-p^m sublattices of Z^h in column-reduced echelon form, the sum
    over compositions a_1 + ... + a_h = m of p^(sum_i (i-1) a_i), evaluated
    by an O(h m) dynamic program over the parts instead of term by term; a
    disagreement raises InternalMismatch.  Both are cross-checked against
    enumerate_subgroups wherever that is feasible.

    The dynamic program takes O(h m) big-int operations on numbers of up to
    h m log2(p) bits, and the Gaussian product h exact divisions of numbers
    of up to (m + h) log2(p) bits, so h (h + m) bit_length(p) is capped at
    COUNT_SIZE_CAP (ResourceLimit) before any of that work.
    """
    check_prime(p)
    if h < 1 or m < 0:
        raise BadParameters("need h >= 1 and m >= 0")
    size = h * (h + m) * p.bit_length()
    if size > COUNT_SIZE_CAP:
        raise ResourceLimit(
            "count size h(h+m)log2(p) = %d exceeds cap %d" % (size, COUNT_SIZE_CAP)
        )
    gauss = _gaussian_binomial(m + h - 1, h - 1, p)
    echelon = _echelon_count(h, p, m)
    if gauss != echelon:
        raise InternalMismatch(
            "Gaussian binomial %d != echelon count %d for (h, p, m) = (%d, %d, %d)"
            % (gauss, echelon, h, p, m)
        )
    return gauss


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    """[n choose k]_q as the product of (q^(n-k+i) - 1) / (q^i - 1), i <= k.

    After step i the running value is [n-k+i choose i]_q, an integer, so
    every division is exact.
    """
    value = 1
    top = q ** (n - k)
    bottom = 1
    for _ in range(k):
        top *= q
        bottom *= q
        value = value * (top - 1) // (bottom - 1)
    return value


def _echelon_count(h: int, p: int, m: int) -> int:
    """Sum over compositions of m into h parts of p^(sum_i (i-1) a_i).

    A dynamic program over the parts: ways[s] is the sum over the parts
    placed so far that total s.  Part 1 has weight 1, so every total starts
    with one term.  Part i multiplies a term by p^((i-1) a_i); a term of
    total s either leaves part i empty (ways[s] of the previous parts) or
    takes one more unit of it from a term of total s-1, so each part costs
    O(m) big-int operations.
    """
    ways = [1] * (m + 1)
    for i in range(1, h):
        weight = p ** i
        for s in range(1, m + 1):
            ways[s] += weight * ways[s - 1]
    return ways[m]


def sub_leq_count(h: int, p: int, k: int) -> int:
    """Number of subgroups of order at most p^k of the h-fold Pruefer p-group."""
    return sum(count_sublattices(h, p, m) for m in range(k + 1))
