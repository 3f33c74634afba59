"""Actions of (Z/p^k)^h on p^k points, up to symmetric-group conjugacy.

A tuple of h pairwise-commuting permutations of p-power order is the same
thing as an action of L = (Z/p^k)^h, and conjugacy classes of such tuples
in Sym(p^k) correspond to isomorphism classes of L-sets: a canonical
multiset of (orbit kernel, multiplicity) pairs.  This module enumerates the
classes, realizes them as concrete permutations, and computes the invariants
used by the component decomposition: centralizer structure, minimal block
level, diagonal factorization, dual image, and the fixed-coset fibration
over block subgroups.

The cosets of a Young subgroup Sym(b)^c are modelled here, and only here,
as ordered block partitions (``_BlockCosets``), which ``classfun`` shares;
the alpha-stable ones are built by packing the orbits of alpha into blocks,
never by filtering all partitions.  Point orbits, the packed orbits and the
centralizer orbits all go through ``perm._orbits``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .abelian import (
    Ambient,
    AbSubgroup,
    _subgroup_levels,
    _valuation,
    check_prime,
    count_sublattices,
    power_exceeds,
)
from .errors import (
    ActionNotClosed,
    BadParameters,
    InternalMismatch,
    NotCommuting,
    OrderNotPPower,
    ResourceLimit,
)
from .perm import (
    Perm,
    _commuting_tuples,
    _compose,
    _conj_images,
    _inverse,
    _orbit_reps,
    _orbits,
    symmetric_group,
)

LAMBDA_ORDER_CAP = 10 ** 4
DEGREE_CAP = 16
# Hom classes enumerated per request; (2, 2, 4) has 4929, (2, 3, 4) 984 771.
HOM_CLASS_CAP = 10 ** 4
PARTITION_CAP = 10 ** 5


def lam_group(p: int, h: int, k: int) -> Ambient:
    """The source group (Z/p^k)^h."""
    return Ambient(p, k, h)


@dataclass(frozen=True)
class HomClass:
    """Conjugacy-class invariant of an action of lam on finitely many points.

    ``orbit_types`` is the canonically sorted tuple of (kernel, multiplicity)
    pairs: the action has ``multiplicity`` orbits isomorphic to lam/kernel.
    """

    lam: Ambient
    orbit_types: tuple

    def __post_init__(self):
        seen = set()
        for kernel, mult in self.orbit_types:
            if mult < 1:
                raise BadParameters("orbit multiplicity must be positive")
            if kernel.ambient != self.lam:
                raise BadParameters("kernel lives in the wrong ambient group")
            if kernel in seen:
                raise BadParameters("duplicate kernel in orbit types")
            seen.add(kernel)
            index = kernel.index
            if self.lam.order % index:
                raise BadParameters("orbit size must divide the source order")
        expected = tuple(sorted(self.orbit_types, key=lambda t: (t[0].index, t[0].elements)))
        if expected != self.orbit_types:
            raise BadParameters("orbit types are not canonically sorted")

    @property
    def points(self) -> int:
        return sum(mult * kernel.index for kernel, mult in self.orbit_types)

    def sort_key(self):
        # expanded orbit list: repeated (size, kernel) pairs compare lexicographically
        key = []
        for kernel, mult in self.orbit_types:
            key.extend([(kernel.index, kernel.elements)] * mult)
        return tuple(key)

    def class_id(self) -> str:
        lam = self.lam
        body = ",".join(
            "(%s:idx%d,m%d)" % (kernel.id_token(), kernel.index, mult)
            for kernel, mult in self.orbit_types
        )
        return "p%d.k%d.h%d:[%s]" % (lam.p, lam.k, lam.h, body)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    @cached_property
    def _hash(self):
        return hash((self.lam, self.orbit_types))

    def __hash__(self):
        # the fields' hash, computed on first use and kept
        return self._hash

    def __repr__(self):
        return "HomClass(%s)" % self.class_id()


@dataclass(frozen=True)
class CommutingTuple:
    """h pairwise-commuting permutations, each of p-power order dividing p^k."""

    degree: int
    perms: tuple

    def __post_init__(self):
        for s in self.perms:
            if s.degree != self.degree:
                raise BadParameters("permutation degree mismatch")
        for a, b in itertools.combinations(self.perms, 2):
            if a * b != b * a:
                raise NotCommuting("tuple entries do not commute")


def _check_orders(perms, p, k):
    cap = p ** k
    for s in perms:
        d = s.order()
        if cap % d:
            raise OrderNotPPower(
                "element order %d does not divide %d^%d" % (d, p, k)
            )


def make_tuple(perms, lam: Ambient) -> CommutingTuple:
    perms = tuple(perms)
    if not perms:
        raise BadParameters("empty tuple")
    if len(perms) != lam.h:
        raise BadParameters("tuple length %d != rank %d" % (len(perms), lam.h))
    t = CommutingTuple(perms[0].degree, perms)
    _check_orders(perms, lam.p, lam.k)
    return t


def _kernel_subgroups(lam: Ambient, max_index: int):
    """Subgroups of lam whose index is a p-power dividing max_index, sorted
    by (index, elements).

    The standard pairing is perfect, so S -> ann(S) maps the subgroups of
    order p^j one-to-one onto those of index p^j.  The kernels are the
    annihilators of lattice levels 0..j, p^j the largest power of p
    dividing max_index; the k*h levels above them are never built."""
    levels = _subgroup_levels(lam, _valuation(max_index, lam.p))
    kernels = [sub.annihilator() for level in levels for sub in level]
    return sorted(kernels, key=lambda sub: (sub.index, sub.elements))


def hom_class_count(p: int, h: int, k: int) -> int:
    """|Hom((Z/p^k)^h, Sym(p^k)) / conjugacy|, without enumerating.

    A class is a multiset of transitive orbits lam/K, one kind per subgroup
    K of index p^j <= p^k.  By duality there are as many such K as
    subgroups of order p^j, and for j <= k those are the order-p^j
    subgroups of the h-fold Pruefer group, so their number is
    a_j = ``count_sublattices(h, p, j)``.  The count is the coefficient of
    x^(p^k) in prod_{j <= k} (1 - x^(p^j))^(-a_j), each factor expanded as
    sum_i C(a_j + i - 1, i) x^(i p^j) up to degree p^k.
    """
    degree = p ** k
    coeffs = [1] + [0] * degree
    for j in range(k + 1):
        a, size = count_sublattices(h, p, j), p ** j
        coeffs = [
            sum(coeffs[d - i * size] * math.comb(a + i - 1, i) for i in range(d // size + 1))
            for d in range(degree + 1)
        ]
    return coeffs[degree]


@lru_cache(maxsize=None)
def enumerate_hom_classes(p: int, h: int, k: int):
    """All classes of actions of (Z/p^k)^h on p^k points, canonically sorted.

    Refused (ResourceLimit) before any enumeration when ``hom_class_count``
    exceeds HOM_CLASS_CAP; the number enumerated must equal that count
    (InternalMismatch otherwise).
    """
    check_prime(p)
    if h < 1 or k < 0:
        raise BadParameters("need h >= 1 and k >= 0")
    if power_exceeds(p, k, DEGREE_CAP):
        raise ResourceLimit("degree %d^%d exceeds cap %d" % (p, k, DEGREE_CAP))
    if power_exceeds(p, k * h, LAMBDA_ORDER_CAP):
        raise ResourceLimit("source group order exceeds cap")
    count = hom_class_count(p, h, k)
    if count > HOM_CLASS_CAP:
        raise ResourceLimit(
            "%d hom classes at (p, h, k) = (%d, %d, %d) exceed cap %d"
            % (count, p, h, k, HOM_CLASS_CAP)
        )
    lam = lam_group(p, h, k)
    degree = p ** k
    kernels = _kernel_subgroups(lam, degree)
    sizes = [s.index for s in kernels]

    classes = []

    def extend(start, remaining, chosen):
        if remaining == 0:
            classes.append(HomClass(lam, tuple(chosen)))
            return
        for i in range(start, len(kernels)):
            size = sizes[i]
            if size > remaining:
                continue
            for mult in range(1, remaining // size + 1):
                chosen.append((kernels[i], mult))
                extend(i + 1, remaining - mult * size, chosen)
                chosen.pop()

    extend(0, degree, [])
    if len(classes) != count:
        raise InternalMismatch(
            "enumerated %d hom classes, the generating function gives %d"
            % (len(classes), count)
        )
    classes.sort(key=HomClass.sort_key)
    return tuple(classes)


@lru_cache(maxsize=None)
def _coset_layout(kernel: AbSubgroup):
    """Cosets of the kernel in canonical order: (reps, element -> coset idx)."""
    lam = kernel.ambient
    lookup = {}
    reps = []
    for x in lam.elements():
        if x in lookup:
            continue
        idx = len(reps)
        reps.append(x)
        for u in kernel.elements:
            lookup[lam.add(x, u)] = idx
    return tuple(reps), lookup


def realize(hc: HomClass) -> CommutingTuple:
    """Concrete commuting permutations with classify(realize(hc)) == hc.

    Points are labelled orbit by orbit in canonical class order, each orbit
    being the coset space lam/kernel with generator i acting by translation.
    """
    lam = hc.lam
    degree = hc.points
    images = [list(range(degree)) for _ in range(lam.h)]
    offset = 0
    basis = [
        tuple(1 if j == i else 0 for j in range(lam.h)) for i in range(lam.h)
    ]
    for kernel, mult in hc.orbit_types:
        reps, lookup = _coset_layout(kernel)
        size = len(reps)
        for _ in range(mult):
            for i, e in enumerate(basis):
                for local, rep in enumerate(reps):
                    target = lookup[lam.add(rep, e)]
                    images[i][offset + local] = offset + target
            offset += size
    perms = tuple(Perm(img) for img in images)
    return CommutingTuple(degree, perms)


def _power_tables(perms, modulus):
    tables = []
    for s in perms:
        powers = [tuple(range(s.degree))]
        for _ in range(modulus - 1):
            powers.append(_compose(s.images, powers[-1]))
        tables.append(powers)
    return tables


def classify(t: CommutingTuple, lam: Ambient) -> HomClass:
    """The class invariant of a commuting tuple: orbit kernels with multiplicity."""
    if len(t.perms) != lam.h:
        raise BadParameters("tuple length %d != rank %d" % (len(t.perms), lam.h))
    _check_orders(t.perms, lam.p, lam.k)
    q = lam.modulus
    tables = _power_tables(t.perms, q)
    imgs = [s.images for s in t.perms]
    counts = {}
    for base, _ in _orbit_reps(range(t.degree), imgs, operator.getitem):
        members = []
        for vec in lam.elements():
            x = base
            for i, c in enumerate(vec):
                x = tables[i][c][x]
            if x == base:
                members.append(vec)
        kernel = AbSubgroup(lam, members)
        counts[kernel] = counts.get(kernel, 0) + 1
    orbit_types = tuple(
        sorted(counts.items(), key=lambda kv: (kv[0].index, kv[0].elements))
    )
    return HomClass(lam, orbit_types)


def centralizer_order(hc: HomClass) -> int:
    """prod_i [lam : U_i]^{m_i} * m_i!  (automorphisms of the lam-set)."""
    total = 1
    for kernel, mult in hc.orbit_types:
        total *= kernel.index ** mult * math.factorial(mult)
    return total


def centralizer_generators(hc: HomClass):
    """Generators of the centralizer of realize(hc) in Sym(points).

    The centralizer of the action is the product over orbit types of
    (lam/U) wr Sym(mult): translations within one orbit copy plus
    permutations of the copies.  Cross-checked against exhaustive
    centralizer computation in the tests.
    """
    lam = hc.lam
    degree = hc.points
    gens = []
    basis = [
        tuple(1 if j == i else 0 for j in range(lam.h)) for i in range(lam.h)
    ]
    offset = 0
    for kernel, mult in hc.orbit_types:
        reps, lookup = _coset_layout(kernel)
        size = len(reps)
        # translations on the first copy of this orbit type
        for e in basis:
            images = list(range(degree))
            changed = False
            for local, rep in enumerate(reps):
                target = lookup[lam.add(rep, e)]
                if target != local:
                    changed = True
                images[offset + local] = offset + target
            if changed:
                gens.append(Perm(images))
        # permutations of the copies (adjacent swap + full cycle)
        if mult >= 2:
            images = list(range(degree))
            for local in range(size):
                images[offset + local] = offset + size + local
                images[offset + size + local] = offset + local
            gens.append(Perm(images))
        if mult >= 3:
            images = list(range(degree))
            for copy in range(mult):
                dst = (copy + 1) % mult
                for local in range(size):
                    images[offset + copy * size + local] = offset + dst * size + local
            gens.append(Perm(images))
        offset += mult * size
    if not gens:
        gens.append(Perm.identity(degree))
    return gens


def minimal_level(hc: HomClass) -> int:
    """Smallest m such that the action splits into invariant blocks of size p^m.

    This equals the largest orbit-size exponent: a transitive orbit of size
    p^e must lie inside a single block, so m >= e; conversely the orbit
    sizes are p-powers at most p^m summing to a multiple of p^m, so filling
    blocks greedily with orbits in decreasing size leaves each partial block
    with a remainder divisible by the next orbit size, and the packing
    always completes.
    """
    p = hc.lam.p
    best = 0
    for kernel, _ in hc.orbit_types:
        e = 0
        idx = kernel.index
        while idx > 1:
            idx //= p
            e += 1
        best = max(best, e)
    return best


def is_isotypic(hc: HomClass) -> bool:
    """True when all orbits share one kernel (factors through a diagonal block)."""
    return len(hc.orbit_types) == 1


def kernel_of_action(hc: HomClass) -> AbSubgroup:
    kernels = [kernel for kernel, _ in hc.orbit_types]
    out = kernels[0]
    for k in kernels[1:]:
        out = out.intersection(k)
    return out


def dual_image(hc: HomClass) -> AbSubgroup:
    """Annihilator of the action kernel: the dual copy of the image in lam.

    The image of the action is lam/ker; under the self-duality of lam given
    by the standard pairing, its character group embeds as the annihilator
    of ker, so |dual_image| = [lam : ker].
    """
    return kernel_of_action(hc).annihilator()


# ---------------------------------------------------------------------------
# ordered block partitions = cosets of block subgroups


def block_partition_count(degree: int, block: int) -> int:
    return math.factorial(degree) // math.factorial(block) ** (degree // block)


def partition_act(images, partition):
    return tuple(tuple(sorted(images[x] for x in blk)) for blk in partition)


class _BlockCosets:
    """Left cosets of the Young subgroup Sym(block)^(degree/block): a token
    is an ordered partition into blocks, each a sorted tuple; ``act``,
    ``fixed`` and ``rep_images`` are the coset action, the alpha-stable
    partitions and the lex-minimal coset representative."""

    def __init__(self, degree: int, block: int):
        if degree % block:
            raise BadParameters("block size %d does not divide degree %d" % (block, degree))
        if block_partition_count(degree, block) > PARTITION_CAP:
            raise ResourceLimit("too many block partitions")
        self.degree = degree
        self.block = block

    act = staticmethod(partition_act)

    @staticmethod
    def rep_images(token):
        # sends base block j onto block j of the partition, in order
        return tuple(itertools.chain(*token))

    def fixed(self, alpha_images):
        """The partitions whose blocks are unions of orbits of alpha, sorted.

        The orbits are packed into unordered blocks, each led by the orbit of
        the least unplaced point; every ordering of a packing is one stable
        partition.  With orbits of p-power size every partial packing
        completes, so the work is proportional to the output."""
        orbits = _orbits(range(self.degree), alpha_images, operator.getitem)
        if max(len(o) for o in orbits) > self.block:
            return []
        last = self.degree // self.block - 1
        packings = []

        def pack(rest, acc):
            if len(acc) == last:  # the rest is the last block
                packings.append(acc + (tuple(sorted(itertools.chain(*rest))),))
                return
            lead, others = rest[0], rest[1:]
            by_size = {}
            for i, orbit in enumerate(others):
                by_size.setdefault(len(orbit), []).append(i)
            sizes = sorted(by_size)
            room = self.block - len(lead)
            for take in itertools.product(*(range(len(by_size[d]) + 1) for d in sizes)):
                if sum(a * d for a, d in zip(take, sizes)) != room:
                    continue
                groups = [itertools.combinations(by_size[d], a) for d, a in zip(sizes, take)]
                for choice in itertools.product(*groups):
                    chosen = set().union(*choice)
                    blk = itertools.chain(lead, *(others[i] for i in chosen))
                    left = [o for i, o in enumerate(others) if i not in chosen]
                    pack(left, acc + (tuple(sorted(blk)),))

        pack(orbits, ())
        return sorted(itertools.chain.from_iterable(map(itertools.permutations, packings)))


@dataclass(frozen=True)
class FiberOrbit:
    """One centralizer orbit of alpha-stable ordered block partitions."""

    partition: tuple
    coset_rep: Perm
    block_classes: tuple
    orbit_size: int
    stabilizer_order: int


def coset_fiber(hc: HomClass, m: int):
    """Centralizer orbits of alpha-stable partitions into blocks of p^m.

    Each orbit record carries the canonical representative partition, the
    matching coset representative g, the blockwise class tuple of the
    conjugated action g^{-1} alpha g, the orbit size (which equals the index
    of the stabilizer in the centralizer), and the stabilizer order.
    """
    lam = hc.lam
    degree, block = hc.points, lam.p ** m
    system = _BlockCosets(degree, block)
    alpha = [s.images for s in realize(hc).perms]
    fixed = system.fixed(alpha)
    gens = [g.images for g in centralizer_generators(hc)]
    order = centralizer_order(hc)
    try:
        # centralizer elements permute the alpha-stable partitions
        orbits = _orbit_reps(fixed, gens, system.act)
    except ActionNotClosed as exc:
        raise InternalMismatch("centralizer left the fixed set") from exc
    records = []
    for rep, size in orbits:
        if order % size:
            raise InternalMismatch("orbit size does not divide the centralizer order")
        g = Perm(system.rep_images(rep))
        ginv = _inverse(g.images)
        conj = [_conj_images(ginv, s) for s in alpha]
        block_classes = [
            classify(CommutingTuple(block, tuple(
                Perm(v - base for v in s[base:base + block]) for s in conj
            )), lam)
            for base in range(0, degree, block)
        ]
        records.append(
            FiberOrbit(
                partition=rep,
                coset_rep=g,
                block_classes=tuple(block_classes),
                orbit_size=size,
                stabilizer_order=order // size,
            )
        )
    return records


def commuting_tuple_count(degree: int, p: int, k: int, h: int) -> int:
    """Direct exhaustion: number of h-tuples of pairwise-commuting
    permutations of p-power order dividing p^k in Sym(degree)."""
    cap = p ** k
    pool = [
        s.images
        for s in symmetric_group(degree).iter_elements()
        if cap % s.order() == 0
    ]
    return sum(1 for _ in _commuting_tuples(pool, h))
