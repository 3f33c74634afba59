"""Actions of (Z/p^k)^h on p^k points, up to symmetric-group conjugacy.

A tuple of h pairwise-commuting permutations of p-power order is the same
thing as an action of L = (Z/p^k)^h, and conjugacy classes of such tuples
in Sym(p^k) correspond to isomorphism classes of L-sets: a canonical
multiset of (orbit kernel, multiplicity) pairs.  This module enumerates the
classes, realizes them as concrete permutations, and computes the invariants
used by the component decomposition: centralizer structure, minimal block
level, diagonal factorization, dual image, and the fixed-coset fibration
over block subgroups.

Every orbit is read by its shape (``perm._orbit_shapes``): the
generators' image tuples on the orbit, relabelled in the breadth-first
order in which the walk lists it from its minimum.  L is abelian, so a
translation of L/K commutes with the action and the walk labels L/K alike
from every base point: the shape depends on K alone, and K is the
stabilizer of its point 0.  ``_orbit_kernel`` takes that stabilizer from
the walk itself, as the span of its Schreier elements, with the index
checked against the orbit length; ``realize`` goes the other way, from K
to the generators' action on lam/K (``_orbit_action``).  Both are memoized
with at most 1024 entries, one per (L, kernel), so an orbit costs a lookup
once its kernel is known.  The walk of all of L over power tables, once
per orbit, is the tests' oracle (``classify_by_walk`` in
``tests/oracles.py``).

The fibration reads the centralizer orbits of the cosets of a Young
subgroup Sym(b)^c from ``perm`` (``_BlockCosets`` and ``_stable_orbits``),
off the orbit types of the action, without listing the stable partitions
or taking the centralizer's generators, and adds only the blockwise
classes of each orbit.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

from .abelian import (
    Ambient,
    AbSubgroup,
    _check_ambient_cap,
    _subgroup_levels,
    _translate,
    _valuation,
    count_sublattices,
)
from .checks import Record, check_prime, power_exceeds
from .errors import (
    BadParameters,
    InternalMismatch,
    NotCommuting,
    OrderNotPPower,
    ResourceLimit,
)
from .perm import (
    Perm,
    _BlockCosets,
    _commute_images,
    _orbit_shapes,
    _order,
    _permutation,
    _stable_orbits,
)

DEGREE_CAP = 16
# Hom classes enumerated per request; (2, 2, 4) has 4929, (2, 3, 4) 984 771.
HOM_CLASS_CAP = 10 ** 4
# Elements of the orbit kernels listed per request; (2, 6, 2) lists
# 2.86 * 10^6, (2, 12, 1) 8.39 * 10^6.
KERNEL_ELEMENT_CAP = 3 * 10 ** 6


def lam_group(p: int, h: int, k: int) -> Ambient:
    """The source group (Z/p^k)^h."""
    return Ambient(p, k, h)


def _kernel_key(kernel: AbSubgroup):
    """The canonical order of kernels: by index, then by sorted elements
    (packed ints sort as their tuples do)."""
    return kernel.index, kernel._keys


def _basis(lam: Ambient):
    """The packed unit vectors e_0, ..., e_(h-1), reduced mod p^k (all 0 at k = 0)."""
    return [lam._pack(tuple(int(j == i) for j in range(lam.h)), reduce=True) for i in range(lam.h)]


class HomClass(Record):
    """Conjugacy-class invariant of an action of lam on finitely many points.

    ``orbit_types`` is the canonically sorted tuple of (kernel, multiplicity)
    pairs: the action has ``multiplicity`` orbits isomorphic to lam/kernel.
    """

    __slots__ = ("lam", "orbit_types", "_hash")
    _fields = ("lam", "orbit_types")

    def __init__(self, lam: Ambient, orbit_types: tuple):
        seen = set()
        for kernel, mult in orbit_types:
            if mult < 1:
                raise BadParameters("orbit multiplicity must be positive")
            if kernel.ambient != lam:
                raise BadParameters("kernel lives in the wrong ambient group")
            if kernel in seen:
                raise BadParameters("duplicate kernel in orbit types")
            seen.add(kernel)
            index = kernel.index
            if lam.order % index:
                raise BadParameters("orbit size must divide the source order")
        expected = tuple(sorted(orbit_types, key=lambda t: _kernel_key(t[0])))
        if expected != orbit_types:
            raise BadParameters("orbit types are not canonically sorted")
        self._init(lam, orbit_types)

    @classmethod
    def _of(cls, lam: Ambient, orbit_types: tuple) -> "HomClass":
        """Trusted constructor, without the checks of ``__init__``:
        ``orbit_types`` pair distinct kernels of lam with positive
        multiplicities and are sorted by ``_kernel_key``, as ``classify``
        and ``enumerate_hom_classes`` build them."""
        hc = object.__new__(cls)
        hc._init(lam, orbit_types)
        return hc

    def _init(self, lam, orbit_types):
        _set = object.__setattr__
        _set(self, "lam", lam)
        _set(self, "orbit_types", orbit_types)
        _set(self, "_hash", None)

    @property
    def points(self) -> int:
        return sum(mult * kernel.index for kernel, mult in self.orbit_types)

    def sort_key(self):
        # expanded orbit list: repeated (size, kernel) pairs compare lexicographically
        key = []
        for kernel, mult in self.orbit_types:
            key.extend([_kernel_key(kernel)] * mult)
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

    # written out: class tables key their dicts by hom classes
    def __eq__(self, other):
        if other.__class__ is HomClass:
            return (self.lam, self.orbit_types) == (other.lam, other.orbit_types)
        return NotImplemented

    def __hash__(self):
        # the fields' hash, computed on first use and kept
        h = self._hash
        if h is None:
            h = hash((self.lam, self.orbit_types))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return "HomClass(%s)" % self.class_id()


class CommutingTuple(Record):
    """h pairwise-commuting permutations, each of p-power order dividing p^k."""

    __slots__ = _fields = ("degree", "perms")

    def __init__(self, degree: int, perms: tuple):
        _check_commuting([s.images for s in perms], degree)
        self._set_fields(degree, perms)


def _check_commuting(imgs, degree):
    """BadParameters unless each image tuple moves ``degree`` points,
    NotCommuting unless they commute pairwise."""
    for s in imgs:
        if len(s) != degree:
            raise BadParameters("permutation degree mismatch")
    for a, b in itertools.combinations(imgs, 2):
        if not _commute_images(a, b):
            raise NotCommuting("tuple entries do not commute")


def _check_orders(imgs, p, k):
    """OrderNotPPower unless every image tuple has order dividing p^k."""
    cap = p ** k
    for s in imgs:
        d = _order(s)
        if cap % d:
            raise OrderNotPPower(
                "element order %d does not divide %d^%d" % (d, p, k)
            )


def _kernel_subgroups(lam: Ambient, max_index: int):
    """Subgroups of lam whose index is a p-power dividing max_index, sorted
    by ``_kernel_key``.

    The standard pairing is perfect, so S -> ann(S) maps the subgroups of
    order p^j one-to-one onto those of index p^j.  The kernels are the
    annihilators of lattice levels 0..j, p^j the largest power of p
    dividing max_index; the k*h levels above them are never built."""
    levels = _subgroup_levels(lam, _valuation(max_index, lam.p))
    kernels = [sub.annihilator() for level in levels for sub in level]
    return sorted(kernels, key=_kernel_key)


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
    exceeds HOM_CLASS_CAP, or when the orbit kernels would list more than
    KERNEL_ELEMENT_CAP elements: a_j kernels of index p^j, a_j =
    ``count_sublattices(h, p, j)``, each of p^(kh - j) elements, for
    j <= k.  The number enumerated must equal the count (InternalMismatch
    otherwise).
    """
    check_prime(p)
    if h < 1 or k < 0:
        raise BadParameters("need h >= 1 and k >= 0")
    if power_exceeds(p, k, DEGREE_CAP):
        raise ResourceLimit("degree %d^%d exceeds cap %d" % (p, k, DEGREE_CAP))
    lam = lam_group(p, h, k)
    _check_ambient_cap(lam)
    count = hom_class_count(p, h, k)
    if count > HOM_CLASS_CAP:
        raise ResourceLimit(
            "%d hom classes at (p, h, k) = (%d, %d, %d) exceed cap %d"
            % (count, p, h, k, HOM_CLASS_CAP)
        )
    listed = sum(count_sublattices(h, p, j) * p ** (k * h - j) for j in range(k + 1))
    if listed > KERNEL_ELEMENT_CAP:
        raise ResourceLimit(
            "%d orbit-kernel elements at (p, h, k) = (%d, %d, %d) exceed cap %d"
            % (listed, p, h, k, KERNEL_ELEMENT_CAP)
        )
    degree = p ** k
    kernels = _kernel_subgroups(lam, degree)
    sizes = [s.index for s in kernels]

    classes = []
    # (next kernel, points left, (kernel, multiplicity) pairs so far); the
    # extensions of each state are pushed last first, so the states pop in
    # the order of a depth-first walk, and a call leaves no reference cycle
    stack = [(0, degree, ())]
    while stack:
        start, remaining, chosen = stack.pop()
        if remaining == 0:
            classes.append(HomClass._of(lam, chosen))
            continue
        for i in range(len(kernels) - 1, start - 1, -1):
            size, kernel = sizes[i], kernels[i]
            for mult in range(remaining // size, 0, -1):
                stack.append((i + 1, remaining - mult * size, chosen + ((kernel, mult),)))
    if len(classes) != count:
        raise InternalMismatch(
            "enumerated %d hom classes, the generating function gives %d"
            % (len(classes), count)
        )
    classes.sort(key=HomClass.sort_key)
    return tuple(classes)


# one entry per (lam, orbit kernel), as for ``_orbit_kernel``
@lru_cache(maxsize=1024)
def _orbit_action(kernel: AbSubgroup):
    """The generators' image tuples on lam/kernel, its cosets numbered in
    canonical order, by least element.  The cosets are walked from the
    kernel, each known by its least element: one translate of the kernel
    per coset and generator, and no table over lam."""
    lam, keys = kernel.ambient, kernel._keys
    basis = _basis(lam)
    images, todo = {}, [0]  # least element -> least elements of its images
    while todo:
        x = todo.pop()
        if x not in images:
            images[x] = [min(_translate(lam, keys, y)) for y in _translate(lam, basis, x)]
            todo.extend(images[x])
    rank = {x: r for r, x in enumerate(sorted(images))}
    return tuple(zip(*([rank[y] for y in images[x]] for x in sorted(images))))


def realize(hc: HomClass) -> CommutingTuple:
    """Concrete commuting permutations with classify(realize(hc)) == hc.

    Points are labelled orbit by orbit in canonical class order, each orbit
    being the coset space lam/kernel with generator i acting by translation
    (``_orbit_action``).
    """
    lam = hc.lam
    images = [[] for _ in range(lam.h)]
    offset = 0
    for kernel, mult in hc.orbit_types:
        action = _orbit_action(kernel)
        for _ in range(mult):
            for img, s in zip(images, action):
                img.extend([offset + v for v in s])
            offset += kernel.index
    perms = tuple(Perm(img) for img in images)
    return CommutingTuple(offset, perms)


# one entry per (lam, orbit kernel): 26 at (2, 2, 3), 18 at (3, 2, 2)
@lru_cache(maxsize=1024)
def _orbit_kernel(lam: Ambient, shape) -> AbSubgroup:
    """The kernel K of a transitive orbit lam/K from its shape: the image
    tuples of the generators on the orbit relabelled 0, 1, ... in the order
    of its breadth-first walk (``perm._orbit_shapes``).

    K is the stabilizer of point 0.  One pass over the positions builds the
    walk's transversal: t_0 = 0, and t_y = t_x + e_i at the step of
    generator i from x that first reaches y.  By Schreier's lemma K is the
    span (``AbSubgroup.span``) of t_x + e_i - t_y over every step.  Each of
    them fixes point 0, so the span lies in K, and it is all of K exactly
    when its index is the orbit length (checked: InternalMismatch)."""
    size = len(shape[0])
    units = [tuple(int(j == i) for j in range(lam.h)) for i in range(lam.h)]
    walk = [(0,) * lam.h] + [None] * (size - 1)
    schreier = []
    for x in range(size):
        for s, unit in zip(shape, units):
            step, y = tuple(map(operator.add, walk[x], unit)), s[x]
            if walk[y] is None:
                walk[y] = step
            else:
                schreier.append(tuple(map(operator.sub, step, walk[y])))
    kernel = AbSubgroup.span(lam, schreier)
    if kernel.index != size:
        raise InternalMismatch(
            "Schreier elements span a subgroup of index %d on an orbit of %d points"
            % (kernel.index, size)
        )
    return kernel


def classify(t, lam: Ambient, degree=None) -> HomClass:
    """The class invariant of a commuting tuple: orbit kernels with multiplicity.

    ``t`` is a CommutingTuple, or the image tuples of one on ``degree``
    points (by default the first's), checked as Perm and CommutingTuple
    check theirs without building either.  Each orbit's kernel is read off
    its shape, the generators' images on the orbit relabelled in the order
    of its walk (``perm._orbit_shapes`` and ``_orbit_kernel``)."""
    if isinstance(t, CommutingTuple):
        imgs = tuple(s.images for s in t.perms)
    else:
        imgs = tuple(map(_permutation, t))
        _check_commuting(imgs, len(imgs[0]) if degree is None and imgs else degree)
    if len(imgs) != lam.h:
        raise BadParameters("tuple length %d != rank %d" % (len(imgs), lam.h))
    _check_orders(imgs, lam.p, lam.k)
    _check_ambient_cap(lam)
    counts = {}
    for _, shape in _orbit_shapes(imgs, len(imgs[0])):
        kernel = _orbit_kernel(lam, shape)
        counts[kernel] = counts.get(kernel, 0) + 1
    orbit_types = tuple(sorted(counts.items(), key=lambda kv: _kernel_key(kv[0])))
    return HomClass._of(lam, orbit_types)


def centralizer_order(hc: HomClass) -> int:
    """prod_i [lam : U_i]^{m_i} * m_i!  (automorphisms of the lam-set)."""
    total = 1
    for kernel, mult in hc.orbit_types:
        total *= kernel.index ** mult * math.factorial(mult)
    return total


def minimal_level(hc: HomClass) -> int:
    """Smallest m such that the action splits into invariant blocks of size p^m.

    This equals the largest orbit-size exponent: a transitive orbit of size
    p^e must lie inside a single block, so m >= e; conversely the orbit
    sizes are p-powers at most p^m summing to a multiple of p^m, so filling
    blocks greedily with orbits in decreasing size leaves each partial block
    with a remainder divisible by the next orbit size, and the packing
    always completes.
    """
    return max((_valuation(kernel.index, hc.lam.p) for kernel, _ in hc.orbit_types), default=0)


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

    ker is the intersection of the orbit kernels K_i, and the annihilator
    of an intersection is the sum of the annihilators, so the dual image is
    the span of the kernels' duals: each kernel's annihilator is solved
    once and kept on it, and none is solved for ker.  Checked on every call
    (InternalMismatch): the span lies in ann(ker), of order [lam : ker] as
    the pairing is perfect, so it is all of it exactly when
    |span| * |ker| = |lam|.
    """
    lam = hc.lam
    span = AbSubgroup.span(lam, [
        g for kernel, _ in hc.orbit_types for g in kernel.annihilator().generators()
    ])
    kernel = kernel_of_action(hc)
    if span.order * kernel.order != lam.order:
        raise InternalMismatch(
            "span of the kernel duals has order %d, the action kernel %d, lam %d"
            % (span.order, kernel.order, lam.order)
        )
    return span


class FiberOrbit(Record):
    """One centralizer orbit of alpha-stable ordered block partitions."""

    __slots__ = _fields = (
        "partition", "coset_rep", "block_classes", "orbit_size", "stabilizer_order",
    )

    def __init__(self, partition: tuple, coset_rep: Perm, block_classes: tuple,
                 orbit_size: int, stabilizer_order: int):
        self._set_fields(partition, coset_rep, block_classes, orbit_size, stabilizer_order)


def coset_fiber(hc: HomClass, m: int):
    """Centralizer orbits of alpha-stable partitions into blocks of p^m.

    Each orbit record carries the canonical representative partition, the
    matching coset representative g, the blockwise class tuple of the
    conjugated action g^{-1} alpha g, the orbit size (which equals the index
    of the stabilizer in the centralizer), and the stabilizer order.
    """
    lam = hc.lam
    if not 0 <= m <= lam.k:
        raise BadParameters("need 0 <= m <= k, got m = %r" % (m,))
    degree, block = hc.points, lam.p ** m
    system = _BlockCosets(degree, block)
    alpha = [s.images for s in realize(hc).perms]
    orbits, _ = _stable_orbits(system, alpha, centralizer_order(hc))
    return [
        FiberOrbit(
            partition=token,
            coset_rep=Perm(g),
            block_classes=tuple(
                classify(CommutingTuple(block, tuple(
                    Perm(v - base for v in s[base:base + block]) for s in beta
                )), lam)
                for base in range(0, degree, block)
            ),
            orbit_size=size,
            stabilizer_order=stab_order,
        )
        for token, size, stab_order, g, beta in orbits
    ]
