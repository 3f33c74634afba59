"""Subgroups of homocyclic abelian p-groups (Z/p^K)^h.

An element is an h-tuple of ints mod p^K in the public view.  Inside this
module it is one int: coordinate i fills a field of F = bit_length(p^K) + 1
bits, coordinate 0 the most significant field, so int order is tuple order.
Two packed elements add field by field without carries, and one mask
reduces every field mod p^K at once (``_translate``).  At desk scale the
ambient group never exceeds 10^4 elements, so a subgroup's sorted packed
element list is its canonical form; its tuples, generators and id are
decoded on first use.  Spans, greedy generators and the subgroup lattice
close through one routine, the cyclic extension ``_extend``; a subgroup's
greedy generators are walked once and kept.  The annihilator is not
searched for: it is solved from the generator rows brought to diagonal form
over the local ring Z/p^K (Smith normal form up to units), and only its
span is enumerated.  The closed-form sublattice count is kept deliberately
independent of the brute-force enumeration so that each can act as an
oracle for the other.
"""

from __future__ import annotations

import math
from functools import cached_property

from .checks import Record, check_prime, digit_limit, power_exceeds
from .errors import BadParameters, InternalMismatch, ResourceLimit

AMBIENT_CAP = 10 ** 4
# Bound on h * (h + m) * bit_length(p) for count_sublattices; see there.
COUNT_SIZE_CAP = 2 * 10 ** 5


class Ambient(Record):
    """The group (Z/p^k)^h.  Elements are h-tuples of ints mod p^k to
    callers; the subgroup code packs each into one int (``_pack``)."""

    _fields = ("p", "k", "h")

    def __init__(self, p: int, k: int, h: int):
        check_prime(p)
        if k < 0 or h < 1:
            raise BadParameters("need k >= 0 and h >= 1")
        self._set_fields(p, k, h)

    # written out: every cache keyed by an ambient hashes it
    def __eq__(self, other):
        if other.__class__ is Ambient:
            return (self.p, self.k, self.h) == (other.p, other.k, other.h)
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.k, self.h))

    # p^k and p^(kh) are computed on first read and kept; equality and the
    # hash stay on (p, k, h)
    @cached_property
    def modulus(self) -> int:
        return self.p ** self.k

    @cached_property
    def order(self) -> int:
        return self.modulus ** self.h

    @cached_property
    def _layout(self):
        """(F, q, w, K, ones): the field width F = w + 1 for q = p^k of w
        bits, K holding 2^w - q and ones holding 1 in every field.  A field
        of a sum of two elements is below 2q <= 2^F, and it is at least q
        exactly when adding 2^w - q sets its bit w."""
        q = self.modulus
        w = q.bit_length()
        ones = sum(1 << (w + 1) * i for i in range(self.h))
        return w + 1, q, w, ((1 << w) - q) * ones, ones

    def _pack(self, x, reduce=False) -> int:
        """The packed int of an element: BadParameters unless x is an
        h-tuple of ints in 0..p^k-1, or of any ints when ``reduce`` takes
        them mod p^k."""
        F, q = self._layout[:2]
        if not isinstance(x, tuple) or len(x) != self.h:
            raise BadParameters("%r is not an element of (Z/%d)^%d" % (x, q, self.h))
        key = 0
        for v in x:
            if not isinstance(v, int) or not (reduce or 0 <= v < q):
                raise BadParameters("%r is not an element of (Z/%d)^%d" % (x, q, self.h))
            key = key << F | v % q
        return key

    def _unpack(self, key: int) -> tuple:
        F = self._layout[0]
        mask = (1 << F) - 1
        return tuple(key >> s & mask for s in range(F * (self.h - 1), -1, -F))

    def pairing(self, x, y) -> int:
        """sum(x_i * y_i) mod p^k."""
        return sum(a * b for a, b in zip(x, y)) % self.modulus

    def element_order(self, x) -> int:
        q = self.modulus
        if q == 1:
            return 1
        return math.lcm(*(q // math.gcd(a, q) for a in x))


def _check_ambient_cap(ambient: Ambient):
    """ResourceLimit when (Z/p^k)^h has more than AMBIENT_CAP elements;
    p^(kh) is never formed for a large kh.  Every ambient group listed
    here or in ``homclass``, and ``decomp``'s split model, which is never
    listed, is checked by this one helper before any work on it."""
    p, k, h = ambient.p, ambient.k, ambient.h
    if power_exceeds(p, k * h, AMBIENT_CAP):
        raise ResourceLimit("ambient group (Z/%d^%d)^%d exceeds cap %d" % (p, k, h, AMBIENT_CAP))


def _valuation(a: int, p: int) -> int:
    """The exponent of p in a positive integer a; BadParameters for a < 1."""
    if a < 1:
        raise BadParameters("%r is not a positive integer" % (a,))
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def _translate(ambient: Ambient, members, x):
    """The packed elements s + x for s in ``members``: one int add per
    element, then every field at least p^k loses p^k at once."""
    _, q, w, K, ones = ambient._layout
    return [t - ((t + K) >> w & ones) * q for t in [s + x for s in members]]


def _extend(ambient: Ambient, members, x):
    """The packed elements of S + <x>, S the subgroup with packed element
    set ``members``: the union of the cosets S + i*x, up to the first i*x
    already in S.  Each next multiple is one int add and one mask."""
    _, q, w, K, ones = ambient._layout
    out = set(members)
    shift = x
    while shift not in members:
        out.update(_translate(ambient, members, shift))
        shift += x
        shift -= ((shift + K) >> w & ones) * q
    return out


class AbSubgroup:
    """A subgroup of an Ambient, canonically the sorted tuple of its packed
    elements; ``elements`` is its tuple view, decoded on first use."""

    __slots__ = ("ambient", "_keys", "_kset", "_elements", "_gens", "_ann", "_hash")

    def __init__(self, ambient: Ambient, elements):
        """The subgroup with these elements, h-tuples in 0..p^k-1; BadParameters
        otherwise or when the set is not closed.  Its closure is built by
        ``_extend`` only while no larger than the set, and only if every
        element's order divides the set's size, so a non-subgroup costs at
        most |set|^2 element adds."""
        elements = list(elements)
        members = {ambient._pack(x) for x in elements}
        span = {0}
        if all(len(members) % ambient.element_order(x) == 0 for x in elements):
            for x in members:
                if x not in span and len(span) < len(members):
                    span = _extend(ambient, span, x)
        if span != members:
            raise BadParameters("not a subgroup of (Z/%d)^%d" % (ambient.modulus, ambient.h))
        self._init(ambient, members)

    def _init(self, ambient: Ambient, members: set, keys=None):
        self.ambient = ambient
        self._kset = members
        self._keys = tuple(sorted(members)) if keys is None else keys
        self._elements = self._gens = self._ann = self._hash = None
        if 0 not in members:
            raise ValueError("subgroup must contain zero")

    @classmethod
    def _of_keys(cls, ambient: Ambient, members: set, keys=None) -> "AbSubgroup":
        """The subgroup with this set of packed elements, kept as given, and
        ``keys`` its sorted tuple when the caller has it already."""
        sub = cls.__new__(cls)
        sub._init(ambient, members, keys)
        return sub

    @classmethod
    def span(cls, ambient: Ambient, gens) -> "AbSubgroup":
        """Additive closure of a generating set of h-tuples (or lists) of
        ints, taken mod p^k; BadParameters for anything else.  ResourceLimit
        before any closure when the span may exceed AMBIENT_CAP elements:
        its order is at most the ambient order and at most the product of
        the generators' orders."""
        gens = [tuple(g) if isinstance(g, list) else g for g in gens]
        keys = [ambient._pack(g, reduce=True) for g in gens]
        worst = min(ambient.order, math.prod(map(ambient.element_order, gens)))
        if worst > AMBIENT_CAP:
            raise ResourceLimit(
                "span may reach order %d, above cap %d" % (worst, AMBIENT_CAP)
            )
        members = {0}
        for x in keys:
            if x not in members:
                members = _extend(ambient, members, x)
        return cls._of_keys(ambient, members)

    @classmethod
    def trivial(cls, ambient: Ambient) -> "AbSubgroup":
        return cls._of_keys(ambient, {0})

    @property
    def elements(self):
        """The elements as sorted h-tuples, decoded on first use and kept."""
        if self._elements is None:
            self._elements = tuple(map(self.ambient._unpack, self._keys))
        return self._elements

    @property
    def order(self) -> int:
        return len(self._keys)

    @property
    def index(self) -> int:
        return self.ambient.order // self.order

    def __contains__(self, x) -> bool:
        try:
            return self.ambient._pack(x) in self._kset
        except BadParameters:
            return False

    def __eq__(self, other):
        return (
            isinstance(other, AbSubgroup)
            and self.ambient == other.ambient
            and self._keys == other._keys
        )

    def __lt__(self, other):
        return self._keys < other._keys

    def __hash__(self):
        # hashing walks the key tuple: done on first use, then kept
        if self._hash is None:
            self._hash = hash((self.ambient, self._keys))
        return self._hash

    def __repr__(self):
        return "AbSubgroup(order=%d, gens=%s)" % (self.order, self.generators())

    def generators(self):
        """Deterministic generating list: greedily take minimal new elements.
        The walk runs on the first call; later calls read its list."""
        if self._gens is None:
            self._gens = tuple(map(self.ambient._unpack, self._greedy_generators()))
        return list(self._gens)

    def _greedy_generators(self):
        gens, span = [], {0}
        for x in self._keys:
            if len(span) == len(self._keys):
                break
            if x not in span:
                gens.append(x)
                span = _extend(self.ambient, span, x)
        return gens

    def intersection(self, other: "AbSubgroup") -> "AbSubgroup":
        return AbSubgroup._of_keys(self.ambient, self._kset & other._kset)

    def annihilator(self) -> "AbSubgroup":
        """{y : <x, y> = 0 mod p^k for all x in self}, by a diagonal solve
        on the first call; later calls return the subgroup it found.

        The annihilator is the solution module of R y = 0 mod p^k, R the
        rows of the greedy generators.  Z/p^k is local, so an entry of least
        valuation divides its row and its column: row and column operations
        bring R to diagonal form with pivots u_i p^(v_i), u_i a unit, and the
        column operations are kept as V.  With y = V z the system reads
        p^(v_i) z_i = 0, so the solutions are spanned by p^(k - v_i) V e_i
        for each pivot and V e_j for each column without one: O(h^3) ring
        operations, then the span of the output.

        Checked when solved (InternalMismatch): each solution generator
        pairs to 0 with each row, and |ann| * |self| = |ambient|.  The
        standard pairing is perfect, so |ann(self)| = |ambient| / |self|,
        and a subgroup of ann(self) of that order is all of it.
        """
        if self._ann is None:
            self._ann = self._solve_annihilator()
        return self._ann

    def _solve_annihilator(self) -> "AbSubgroup":
        amb = self.ambient
        _check_ambient_cap(amb)
        p, q, h = amb.p, amb.modulus, amb.h
        rows = [list(x) for x in self.generators()]
        cols = [[int(i == j) for i in range(h)] for j in range(h)]  # V e_j
        solutions = []
        for t in range(h):
            least = min(
                ((_valuation(rows[i][j], p), i, j)
                 for i in range(t, len(rows)) for j in range(t, h) if rows[i][j]),
                default=None,
            )
            if least is None:
                solutions.extend(cols[t:])
                break
            v, i, j = least
            rows[t], rows[i] = rows[i], rows[t]
            for row in rows:
                row[t], row[j] = row[j], row[t]
            cols[t], cols[j] = cols[j], cols[t]
            inv = pow(rows[t][t] // p ** v, -1, q)
            for row in rows[t + 1:]:
                c = row[t] // p ** v * inv
                row[:] = [(a - c * b) % q for a, b in zip(row, rows[t])]
            for j in range(t + 1, h):
                c = rows[t][j] // p ** v * inv
                rows[t][j] = 0
                cols[j] = [(a - c * b) % q for a, b in zip(cols[j], cols[t])]
            if v:
                solutions.append([p ** (amb.k - v) * a for a in cols[t]])
        ann = AbSubgroup.span(amb, solutions)
        for y in solutions:
            if any(amb.pairing(x, y) for x in self.generators()):
                raise InternalMismatch("annihilator generator pairs nontrivially with %s" % self)
        if ann.order * self.order != amb.order:
            raise InternalMismatch(
                "annihilator of order %d times subgroup order %d is not %d"
                % (ann.order, self.order, amb.order)
            )
        return ann

    def id_token(self) -> str:
        gens = self.generators()
        if not gens:
            return "U<0>"
        return "U<" + "|".join(".".join(str(v) for v in g) for g in gens) + ">"


def annihilator(subgroup: AbSubgroup) -> AbSubgroup:
    return subgroup.annihilator()


def _subgroup_levels(ambient: Ambient, top: int):
    """Levels 0..top of the subgroup lattice: level m lists the order-p^m
    subgroups, sorted by their packed element tuples.  Nothing is kept
    between calls.

    Level m+1 subgroups are obtained from level-m ones by adjoining an
    element x with p*x in the subgroup (every maximal chain realizes this),
    deduplicating by sorted element tuple: the new subgroup keeps that
    tuple and the member set found first, and a level is sorted by its key
    tuples.  The x with p*x = y exist only for y in p*A, A the ambient
    group, and they are x0 + t for the p^h points t of the p-torsion, where
    x0 = y/p field by field (``roots``, one entry per y in p*A, built once
    per call).  Every field of x0 is below p^(k-1) and every field of t a
    multiple of p^(k-1) below p^k, so x0 + t is a plain int add with no
    carry and no reduction.  Because p*x lies in S, the extension S + <x>
    built by ``_extend`` is the union of the p cosets S + i*x for i < p.
    Every element of a freshly built extension is marked as covered, and a
    covered x would build the same extension again, so the order of the
    candidates changes no output.  Levels above k*h are empty and are not
    listed.
    """
    _check_ambient_cap(ambient)
    p, k, h = ambient.p, ambient.k, ambient.h
    levels = [(AbSubgroup.trivial(ambient),)]
    top = min(top, k * h)
    if top == 0:
        return levels
    F = ambient._layout[0]
    lows, torsion = [0], [0]
    for _ in range(h):
        lows = [x << F | d for x in lows for d in range(p ** (k - 1))]
        torsion = [t << F | d * p ** (k - 1) for t in torsion for d in range(p)]
    roots = {p * x: x for x in lows}
    while len(levels) <= top:
        found = {}
        for sub in levels[-1]:
            members = sub._kset
            covered = set()
            for y in sub._keys:
                x0 = roots.get(y)
                if x0 is None:
                    continue
                for t in torsion:
                    x = x0 + t
                    if x in covered or x in members:
                        continue
                    bigger = _extend(ambient, members, x)
                    covered |= bigger
                    found.setdefault(tuple(sorted(bigger)), bigger)
        levels.append(tuple(
            AbSubgroup._of_keys(ambient, found[keys], keys) for keys in sorted(found)
        ))
    return levels


def enumerate_subgroups(h: int, p: int, K: int, order: int):
    """All subgroups of (Z/p^K)^h with the given order, canonically sorted."""
    ambient = Ambient(p, K, h)
    return subgroups_of_ambient(ambient, order)


def subgroups_of_ambient(ambient: Ambient, order=None):
    """The subgroups of the given order, or all of them level by level."""
    if order is None:
        levels = _subgroup_levels(ambient, ambient.k * ambient.h)
        return [s for level in levels for s in level]
    m = _valuation(order, ambient.p)
    if ambient.p ** m != order:  # a positive power of p, p^0 = 1 included
        raise BadParameters("order %d is not a power of %d" % (order, ambient.p))
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
    COUNT_SIZE_CAP (ResourceLimit) before any of that work.  A count that
    could not be printed is refused too (ResourceLimit): the count lies in
    [p^((h-1)m), 3.47 p^((h-1)m)), the product of 1/(1 - p^-i) over i >= 1
    being below 3.47.  When p^((h-1)m) already has more decimal digits than
    the integer-string limit, so has the count, and it is refused before
    the work; a count within one digit of the limit is checked once
    computed.
    """
    check_prime(p)
    if h < 1 or m < 0:
        raise BadParameters("need h >= 1 and m >= 0")
    size = h * (h + m) * p.bit_length()
    if size > COUNT_SIZE_CAP:
        raise ResourceLimit(
            "count size h(h+m)log2(p) = %d exceeds cap %d" % (size, COUNT_SIZE_CAP)
        )
    limit = digit_limit()
    if _digits_above(p ** ((h - 1) * m), limit):
        _refuse_digits(h, p, m, limit)
    gauss = _gaussian_binomial(m + h - 1, h - 1, p)
    echelon = _echelon_count(h, p, m)
    if gauss != echelon:
        raise InternalMismatch(
            "Gaussian binomial %d != echelon count %d for (h, p, m) = (%d, %d, %d)"
            % (gauss, echelon, h, p, m)
        )
    if _digits_above(gauss, limit):
        _refuse_digits(h, p, m, limit)
    return gauss


def _digits_above(n: int, limit: int) -> bool:
    """n >= 10^limit for n >= 0; 10^limit is formed only for an n of more
    than 3 * limit bits, as 2^(3 * limit) < 10^limit."""
    return n.bit_length() > 3 * limit and n >= 10 ** limit


def _refuse_digits(h, p, m, limit):
    raise ResourceLimit(
        "the count at (h, p, m) = (%d, %d, %d) has more than %d digits, the "
        "integer-string limit" % (h, p, m, limit)
    )


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
