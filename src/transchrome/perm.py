"""Exact permutation-group machinery at desk scale.

A Young subgroup Sym(b)^c (``YoungSubgroup``; Sym(n) is its one-block
case) is read by its shape: order, generators, membership and centralizers
come from the blocks, and its elements are enumerated lazily, only for the
code that asks for them.  Every other group is an element list, scanned
exhaustively.  No transfer along a Young subgroup of Sym(n) lists either
group.  The CLI's requests list elements only for the non-Young pairs of
acceptance criteria 3 and 8 (S4 > Z4, S3 > A3, Sym(p) > 1, p <= 5), for
criterion 2's centralizers in S4 and for the factor Sym(b) of each product
class table, b <= 7 under ``classfun.GENERIC_TABLE_CAP`` (10^4 elements).

A group given only by generators is measured by ``StabilizerChain``, a
deterministic Schreier-Sims chain, the one closure routine here: its
order, membership by sifting and, for ``generate``, its elements, listed
only once the order is within the element cap.
``_centralizer_generators`` reads generators of the centralizer of a
commuting tuple in Sym(n) off the tuple's orbits, so the stabilizer proof
in ``classfun`` checks a few generators and one chain order instead of
scanning the centralizer.  ``centralizer`` scans the ambient group once
(``_centralizer_scan``, which the coset table and the exhaustive class
table share) and carries greedy generators of the scan: criterion 2's
explicit check and the tests' oracle.  There is no backtrack search.

The cosets of H <= G are modelled here and only here: ``_coset_system``
checks the subgroup, then picks ordered block partitions (``_BlockCosets``)
for a Young subgroup of a symmetric group and the exhaustive
``_coset_table``, the block model's test oracle, for any other pair; each
model checks the index cap before it is built.  ``_stable_orbits`` gives
the centralizer orbits of the alpha-stable cosets, and their number, for
``classfun`` and ``homclass`` alike.  The table lists the stable cosets and
walks over them the centralizer's generators from one scan of its index of
G.  The block model lists nothing: alpha's layout, its orbits grouped
by type (``_orbit_types``, shared with ``_centralizer_generators``) as
sorted point tuples, gives one orbit per count matrix, how many orbits of
each type each block takes, with its size and its least partition, and
``_stable_partition_count`` counts the stable partitions apart, from the
orbit sizes alone.  That reading depends on the degree, the block size and
the layout alone, and classes share layouts, so ``_layout_orbits`` keeps it
per layout in a bounded memo; the layout is found on every call, and
``_stable_orbits`` checks the reading on every call, hit or miss.

``_orbits`` is the one orbit walk for a group given by generators acting on
a finite set, and ``_orbit_reps`` its (minimum, size) view.  Here the
cycles that ``Perm.cycles`` prints, the table's centralizer orbits and the
orbit packing of ``_BlockCosets.fixed`` go through it, and so does
``_orbit_shapes``, the one reading of the
orbits of image tuples: each orbit with its shape, the generators' images
on it relabelled by position in the walk.  Orbits of one shape are one
type, matched position by position (``_orbit_types``), and
``homclass.classify`` reads each orbit's kernel off its shape.

One cap, ``MAX_ELEMENTS``, bounds every listing of group elements, and it
is checked where a group is listed, before the first element:
``generate`` checks its chain's order and ``YoungSubgroup.iter_elements``
the order of its shape.  Building a group lists nothing, so
``block_subgroup`` and ``symmetric_group`` check nothing; a group given as
an element list is listed already, so ``centralizer`` and the coset table,
which list their groups through ``iter_elements``, check nothing either.

Points are 0-based throughout; the transposition of the first two points
prints as ``(0 1)``.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from functools import lru_cache

from .errors import (
    ActionNotClosed,
    BadParameters,
    DegreeMismatch,
    InternalMismatch,
    NotInGroup,
    NotSubgroup,
    ResourceLimit,
)

# the most elements of a group listed at once
MAX_ELEMENTS = 10 ** 6


def _compose(a, b):
    # image tuples: (a*b)(x) = a(b(x))
    return tuple(a[b[i]] for i in range(len(a)))


def _inverse(a):
    inv = [0] * len(a)
    for i, v in enumerate(a):
        inv[v] = i
    return tuple(inv)


def _conj_images(c, s):
    # c * s * c^{-1} on image tuples
    n = len(c)
    out = [0] * n
    for i in range(n):
        out[c[i]] = c[s[i]]
    return tuple(out)


def _commute_images(a, b):
    n = len(a)
    for i in range(n):
        if a[b[i]] != b[a[i]]:
            return False
    return True


def _commuting_tuples(pool, h):
    """All h-tuples from pool with pairwise-commuting entries, in the lex
    order of their positions in pool.  The partial tuples grow on an
    explicit stack, each one's extensions pushed last first, so a call
    leaves no reference cycle."""
    stack = [()]
    while stack:
        chosen = stack.pop()
        if len(chosen) == h:
            yield chosen
            continue
        stack.extend([
            chosen + (s,) for s in reversed(pool) if all(_commute_images(s, c) for c in chosen)
        ])


def _orbits(points, gens, act):
    """Orbits of the group generated by ``gens`` on ``points``.

    ``act(g, x)`` is the image of point x under generator g.  Returns member
    lists, each led by its minimum, sorted by it, and each in the
    breadth-first order of its walk: a point is listed when it is first
    reached, from the earliest listed point, by the earliest generator.
    Raises ActionNotClosed if a generator moves a point off ``points``.
    """
    pool = set(points)
    seen = set()
    out = []
    for start in sorted(pool):
        if start in seen:
            continue
        seen.add(start)
        members = [start]
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = act(g, x)
                    if y not in seen:
                        if y not in pool:
                            raise ActionNotClosed("group moves a point outside the given set")
                        seen.add(y)
                        nxt.append(y)
            members.extend(nxt)
            frontier = nxt
        out.append(members)
    return out


def _permutation(images):
    """The tuple of ``images``; ValueError unless it lists a permutation of
    0..len-1."""
    images = tuple(images)
    n = len(images)
    seen = [False] * n
    for v in images:
        if not isinstance(v, int) or not 0 <= v < n or seen[v]:
            raise ValueError("images do not describe a permutation: %r" % (images,))
        seen[v] = True
    return images


def _wrap(images):
    """The Perm of an image tuple known to be a permutation, unchecked."""
    p = Perm.__new__(Perm)
    p.images = images
    return p


def _order(images) -> int:
    """The order of a permutation given by its image tuple: the lcm of its
    cycle lengths."""
    n, seen = 1, [False] * len(images)
    for start in range(len(images)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            length += 1
        n = math.lcm(n, length)
    return n


def _orbit_reps(points, gens, act):
    """``[(min point, orbit size)]`` for the orbits of ``_orbits``."""
    return [(orbit[0], len(orbit)) for orbit in _orbits(points, gens, act)]


class Perm:
    """A permutation of {0, ..., N-1}, stored as its tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = _permutation(images)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, text: str, degree: int) -> "Perm":
        """Parse cycle notation like ``"(0 1)(2 3)"``; ``"e"`` or ``"()"`` is the identity."""
        text = text.strip()
        images = list(range(degree))
        if text in ("e", "()", ""):
            return cls(images)
        body = text.replace(",", " ")
        cycles = re.findall(r"\(([^()]*)\)", body)
        if not cycles or re.sub(r"\([^()]*\)|\s", "", body):
            raise ValueError("cannot parse cycle notation: %r" % text)
        placed = set()
        for cyc in cycles:
            pts = [int(tok) for tok in cyc.split()]
            if len(set(pts)) != len(pts):
                raise ValueError("repeated point in cycle: %r" % cyc)
            for p in pts:
                if not 0 <= p < degree:
                    raise ValueError("point %d out of range for degree %d" % (p, degree))
                if p in placed:
                    raise ValueError("point %d appears in two cycles of %r" % (p, text))
                placed.add(p)
            for i, p in enumerate(pts):
                images[p] = pts[(i + 1) % len(pts)]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        if self.degree != other.degree:
            raise DegreeMismatch(
                "cannot compose degree %d with degree %d" % (self.degree, other.degree)
            )
        return _wrap(_compose(self.images, other.images))

    def inverse(self) -> "Perm":
        return _wrap(_inverse(self.images))

    __invert__ = inverse

    def __pow__(self, exponent: int) -> "Perm":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Perm.identity(self.degree)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def order(self) -> int:
        return _order(self.images)

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def cycles(self) -> str:
        """Cycle notation: the orbits of <self> (``_orbits``), each walked
        from its minimum, by minimum, without fixed points; ``"e"`` for the
        identity."""
        orbits = _orbits(range(self.degree), (self.images,), operator.getitem)
        cycs = [c for c in orbits if len(c) > 1]
        if not cycs:
            return "e"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __le__(self, other):
        return self.images <= other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Perm[%s]" % self.cycles()


class PermGroup:
    """A finite permutation group stored as a sorted element list.

    Immutable after construction.  ``generators``, when given, generate the
    group; groups produced by filtering have none, and their working
    generators are all their elements.
    """

    def __init__(self, degree, elements, generators=()):
        self.degree = degree
        elems = sorted(set(elements))
        # identity has the lex-smallest image tuple, so it must sort first
        if not elems or not elems[0].is_identity():
            raise ValueError("group must contain the identity")
        for g in elems:
            if g.degree != degree:
                raise DegreeMismatch("element degree %d != group degree %d" % (g.degree, degree))
        self.elements = tuple(elems)
        self.generators = tuple(generators)
        self._eset = frozenset(g.images for g in elems)

    @property
    def order(self) -> int:
        return len(self.elements)

    def iter_elements(self):
        return iter(self.elements)

    def __contains__(self, perm: Perm) -> bool:
        return perm.degree == self.degree and perm.images in self._eset

    def __iter__(self):
        return self.iter_elements()

    def __len__(self):
        return self.order

    def is_full_symmetric(self) -> bool:
        return self.order == math.factorial(self.degree)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and all(
            g in other for g in self.working_generators()
        )

    def is_abelian(self) -> bool:
        els = self.elements
        for i, a in enumerate(els):
            for b in els[i + 1:]:
                if a * b != b * a:
                    return False
        return True

    def element_order_counts(self) -> dict:
        counts = {}
        for g in self.iter_elements():
            d = g.order()
            counts[d] = counts.get(d, 0) + 1
        return counts

    def working_generators(self):
        return self.generators if self.generators else self.elements

    def __eq__(self, other):
        if not isinstance(other, PermGroup):
            return NotImplemented
        # equal orders: one containment is equality
        return self.order == other.order and other.is_subgroup_of(self)

    def __hash__(self):
        # weak on purpose: avoids enumerating Young subgroups
        return hash((self.degree, self.order))

    def __repr__(self):
        return "PermGroup(degree=%d, order=%d)" % (self.degree, self.order)


class YoungSubgroup(PermGroup):
    """The Young subgroup Sym(block_size)^blocks of Sym(block_size * blocks):
    the permutations that map every block of consecutive points onto itself.

    Sym(n) is the one-block case.  Order, generators and membership are read
    off the shape; the elements are enumerated lazily, in lexicographic order
    (the first block varies slowest), and only when asked for: above
    MAX_ELEMENTS, ``iter_elements`` refuses before the first.
    """

    def __init__(self, block_size, blocks):
        self.block_size = block_size
        self.blocks = blocks
        self.degree = block_size * blocks
        # the embedded (lo lo+1) and (lo lo+1 ... hi-1) of every block
        ident = tuple(range(self.degree))
        gens = []
        for lo in range(0, self.degree, block_size):
            hi = lo + block_size
            if block_size >= 2:
                gens.append(Perm(ident[:lo] + (lo + 1, lo) + ident[lo + 2:]))
            if block_size >= 3:
                gens.append(Perm(ident[:lo] + ident[lo + 1:hi] + (lo,) + ident[hi:]))
        self.generators = tuple(gens)

    @property
    def order(self) -> int:
        return math.factorial(self.block_size) ** self.blocks

    @property
    def elements(self):
        return tuple(self.iter_elements())

    def iter_elements(self):
        if self.order > MAX_ELEMENTS:
            raise ResourceLimit(
                "Sym(%d)^%d exceeds cap of %d elements" % (self.block_size, self.blocks, MAX_ELEMENTS)
            )
        b = self.block_size
        factors = [itertools.permutations(range(lo, lo + b)) for lo in range(0, self.degree, b)]
        # one block streams; product() would first list all of Sym(n)
        rows = factors[0] if self.blocks == 1 else (sum(c, ()) for c in itertools.product(*factors))
        return map(_wrap, rows)

    def __contains__(self, perm: Perm) -> bool:
        b = self.block_size
        return (
            isinstance(perm, Perm)
            and perm.degree == self.degree
            # one block: every permutation of the points is a member
            and (self.blocks == 1 or all(v // b == i // b for i, v in enumerate(perm.images)))
        )


@lru_cache(maxsize=None)
def symmetric_group(degree: int) -> YoungSubgroup:
    return YoungSubgroup(degree, 1)


def generate(degree: int, gens) -> PermGroup:
    """The group generated by ``gens``, listed; deterministic sorted output.

    Its ``StabilizerChain`` gives the order first, so a group above the
    element cap is refused before any element is listed."""
    gens = tuple(gens)
    for g in gens:
        if g.degree != degree:
            raise DegreeMismatch("generator degree %d != %d" % (g.degree, degree))
    chain = StabilizerChain(degree, [g.images for g in gens])
    if chain.order > MAX_ELEMENTS:
        raise ResourceLimit("closure exceeds cap of %d elements" % MAX_ELEMENTS)
    return PermGroup(degree, map(Perm, chain.elements()), generators=gens)


class StabilizerChain:
    """A stabilizer chain of the group generated by image tuples on
    {0, ..., degree-1}, built by the deterministic Schreier-Sims algorithm
    (C. C. Sims 1970; A. Seress, *Permutation Group Algorithms*, 2003, ch. 4).

    Level i has a base point b_i, strong generators that fix b_0..b_(i-1),
    and a transversal: for each point x of the orbit of b_i under them, one
    element u_x of their group with u_x(b_i) = x, kept with its inverse.
    Every Schreier generator u_(s x)^-1 s u_x of every level is sifted
    through the levels below it, and one that does not sift to the identity
    becomes a strong generator one level down.  So the finished chain is
    complete: the order is the product of the orbit lengths, and g is a
    member exactly when it sifts to the identity.  No random element is
    drawn, so a wrong order cannot come from bad luck.
    """

    __slots__ = ("_ident", "_levels")

    def __init__(self, degree: int, gens=()):
        self._ident = tuple(range(degree))
        self._levels = []  # (base point, strong generators, {x: (u_x, u_x^-1)})
        for g in gens:
            self.add(g)

    @property
    def order(self) -> int:
        return math.prod(len(trans) for _, _, trans in self._levels)

    def __contains__(self, images) -> bool:
        return self._sift(tuple(images), 0) == self._ident

    def elements(self):
        """Every element, as image tuples: each is u_0 u_1 ... u_m for one
        transversal element u_i per level, and each product once."""
        out = [self._ident]
        for _, _, trans in reversed(self._levels):
            out = [_compose(u, g) for u, _ in trans.values() for g in out]
        return out

    def add(self, g) -> bool:
        """Extend the group by the image tuple g; False if g was a member."""
        residue = self._sift(tuple(g), 0)
        if residue == self._ident:
            return False
        self._extend(0, residue)
        return True

    def _sift(self, g, level):
        """g divided by transversal elements from ``level`` down, as far as
        its base images lie in the orbits: the identity for a member of
        that level's group."""
        for base, _, trans in self._levels[level:]:
            entry = trans.get(g[base])
            if entry is None:
                return g
            inv = entry[1]
            g = tuple([inv[y] for y in g])
        return g

    def _extend(self, level, g):
        """Add g, which fixes the base points above ``level``, as a strong
        generator there; grow the orbit and sift every new Schreier
        generator one level down."""
        levels = self._levels
        if level == len(levels):
            base = next(x for x, y in enumerate(g) if x != y)
            levels.append((base, [], {base: (self._ident, self._ident)}))
        _, gens, trans = levels[level]
        gens.append(g)
        todo = [(x, g) for x in trans]
        while todo:
            x, s = todo.pop()
            su = tuple([s[y] for y in trans[x][0]])
            entry = trans.get(s[x])
            if entry is None:
                trans[s[x]] = (su, _inverse(su))
                todo.extend((s[x], t) for t in gens)
                continue
            inv = entry[1]
            residue = self._sift(tuple([inv[y] for y in su]), level + 1)
            if residue != self._ident:
                self._extend(level + 1, residue)


def _chain_generators(degree, candidates, size=0):
    """(W, |<W>|): the candidates, image tuples, that each enlarge the
    ``StabilizerChain`` of those kept before them, and its order.  With
    ``size``, the order of the group the candidates lie in, the walk stops
    once the chain reaches it: every later candidate is a member."""
    chain = StabilizerChain(degree)
    gens = []
    for c in candidates:
        if chain.order == size:
            break
        if chain.add(c):
            gens.append(c)
    return gens, chain.order


def _orbit_shapes(imgs, degree):
    """``[(orbit, shape)]`` for the orbits of A = <imgs> on {0, ..., degree-1}
    in the order and the breadth-first order of ``_orbits``: the shape is
    the generators' image tuples on the orbit, each point relabelled by its
    position there.

    The walk from an orbit's minimum depends on the action alone, so two
    orbits have one shape exactly when the map that matches them position
    by position is a map of A-sets: the shape is the orbit's isomorphism
    type with its minimum as base point."""
    where = [0] * degree
    out = []
    for orbit in _orbits(range(degree), imgs, operator.getitem):
        for i, x in enumerate(orbit):
            where[x] = i
        out.append((orbit, tuple([tuple([where[s[x]] for x in orbit]) for s in imgs])))
    return out


def _orbit_types(imgs, degree):
    """The orbits of A = <imgs> on {0, ..., degree-1} grouped by shape
    (``_orbit_shapes``): per type, its orbits, matched position by position
    by the maps of A-sets from the first onto each.  Orbits come in the
    order of their minima, within a type and across the types' first
    orbits.  For commuting ``imgs`` the shape holds the orbit's stabilizer,
    which is the whole isomorphism type of a transitive abelian A-set."""
    types = {}
    for orbit, shape in _orbit_shapes(imgs, degree):
        types.setdefault(shape, []).append(orbit)
    return list(types.values())


def _centralizer_generators(imgs, degree):
    """Generators, as image tuples, of the centralizer in Sym(degree) of
    the commuting image tuples ``imgs``, read off their orbits.

    The group A they generate is abelian, and its centralizer is the
    product over the isomorphism types of A-orbit O of (A|O) wr Sym(m), m
    the copies of O (a transitive abelian group is its own centralizer).
    Per type (``_orbit_types``): each generator restricted to the first
    copy, where it moves it; a swap of the first two copies; and, from
    three copies on, a cycle of all of them, each moving the points of a
    copy to the same positions of the next.  Nothing here checks that
    ``imgs`` commute: whoever relies on these generators checks the group
    they generate."""
    gens = []
    for copies in _orbit_types(imgs, degree):
        first = copies[0]
        for s in imgs:
            if any(s[x] != x for x in first):
                g = list(range(degree))
                for x in first:
                    g[x] = s[x]
                gens.append(tuple(g))
        shuffles = [copies[:2]] if len(copies) >= 2 else []
        if len(copies) >= 3:
            shuffles.append(copies)
        for shuffled in shuffles:
            g = list(range(degree))
            for src, dst in zip(shuffled, shuffled[1:] + shuffled[:1]):
                for x, y in zip(src, dst):
                    g[x] = y
            gens.append(tuple(g))
    return gens


def block_subgroup(block_size: int, blocks: int) -> YoungSubgroup:
    """The direct product of symmetric groups on consecutive equal blocks.

    ``block_subgroup(2, 2)`` is the subgroup of Sym(4) preserving {0,1} and
    {2,3} setwise; its order is (block_size!)^blocks.  Building it lists no
    element, so no order is capped here: its ``iter_elements`` checks the
    element cap.
    """
    return YoungSubgroup(block_size, blocks)


def _centralizer_scan(elements, imgs):
    """The image tuples among ``elements``, image tuples, that commute with
    every image tuple in ``imgs``, in the order given."""
    return [g for g in elements if all(_commute_images(g, s) for s in imgs)]


def centralizer(ambient: PermGroup, perms) -> PermGroup:
    """All elements of ``ambient`` commuting with every permutation in
    ``perms``, by one scan of ``ambient``, carrying greedy generators: the
    scanned elements, in lex order, that enlarge the ``StabilizerChain`` of
    those kept before them.  Criterion 2's explicit check and the tests'
    oracle; no transfer computation asks for it."""
    perms = list(perms)
    for s in perms:
        if s not in ambient:
            raise NotInGroup("%r is not in the ambient group" % s)
    scan = _centralizer_scan(
        (g.images for g in ambient.iter_elements()), [s.images for s in perms]
    )
    gens = _chain_generators(ambient.degree, scan, len(scan))[0]
    return PermGroup(ambient.degree, map(Perm, scan), generators=map(Perm, gens))


# ---------------------------------------------------------------------------
# coset models: a token per left coset gH, with ``fixes(c, token)`` whether
# c*gH is gH (c an image tuple), ``fixed(alpha)`` the sorted tokens that every
# image tuple in alpha fixes, ``centralizer_orbits(alpha)`` the (least
# token, size) of each orbit of the centralizer of alpha in G on them and
# their number, and ``rep_images(token)`` the lex-minimal g

INDEX_CAP = 10 ** 5


def check_index(index: int):
    """The one cap on the size of a coset space, checked before it is built."""
    if index > INDEX_CAP:
        raise ResourceLimit("index %d exceeds cap %d" % (index, INDEX_CAP))


def young_index(degree: int, block: int) -> int:
    """[Sym(degree) : Sym(block)^(degree/block)]; BadParameters unless
    ``block`` is a positive int dividing the degree."""
    if not isinstance(block, int) or block < 1 or degree % block:
        raise BadParameters("block size %r does not divide degree %d" % (block, degree))
    return math.factorial(degree) // math.factorial(block) ** (degree // block)


class _CosetTable:
    """The exhaustive coset model: token i is the coset of ``_reps[i]``, the
    lex-minimal representatives in order; every element of G is indexed."""

    def __init__(self, G: PermGroup, H: PermGroup):
        if not H.is_subgroup_of(G):
            raise NotSubgroup("H is not a subgroup of G")
        elements = G.iter_elements()  # a Young G above the element cap stops here
        check_index(G.order // H.order)
        h_imgs = [h.images for h in H.iter_elements()]
        index = {}
        reps = []
        for g in elements:
            gi = g.images
            if gi in index:
                continue
            idx = len(reps)
            reps.append(gi)
            for h in h_imgs:
                index[_compose(gi, h)] = idx
        self.degree = G.degree
        self._reps = tuple(reps)
        self._index = index

    def rep_images(self, token):
        return self._reps[token]

    def act(self, c_images, token):
        """The token of c*gH, for the walk of ``centralizer_orbits``."""
        return self._index[_compose(c_images, self._reps[token])]

    def fixes(self, c_images, token):
        return self.act(c_images, token) == token

    def fixed(self, alpha_images):
        act = self.act
        return [t for t in range(len(self._reps)) if all(act(s, t) == t for s in alpha_images)]

    def centralizer_orbits(self, alpha_images):
        """(``[(least token, orbit size)]``, number of stable tokens): the
        walk over the alpha-stable tokens of the centralizer's generators
        from one scan of the index's keys, every element of G, pruned by
        ``_chain_generators``; the orbits do not depend on which."""
        fixed = self.fixed(alpha_images)
        scan = _centralizer_scan(self._index, alpha_images)
        gens = _chain_generators(self.degree, scan, len(scan))[0]
        return _orbit_reps(fixed, gens, self.act), len(fixed)


# one table per (G, H), built on first use
_coset_table = lru_cache(maxsize=64)(_CosetTable)


class _BlockCosets:
    """Left cosets of the Young subgroup Sym(block)^(degree/block) in
    Sym(degree): a token is an ordered partition into blocks, each a sorted
    tuple, and g sends base block j onto block j of the partition."""

    def __init__(self, degree: int, block: int):
        check_index(young_index(degree, block))
        self.degree = degree
        self.block = block

    @staticmethod
    def fixes(images, partition):
        """Whether images maps each block of the partition into itself;
        no block is sorted."""
        return all(set(blk).issuperset(map(images.__getitem__, blk)) for blk in partition)

    @staticmethod
    def rep_images(token):
        return tuple(itertools.chain(*token))

    def fixed(self, alpha_images):
        """The partitions whose blocks are unions of orbits of alpha, sorted.

        The orbits are packed into unordered blocks, each led by the orbit of
        the least unplaced point; every ordering of a packing is one stable
        partition.  With orbits of p-power size every partial packing
        completes, so the work is proportional to the output.  The packings
        grow on an explicit stack, so a call leaves no reference cycle."""
        orbits = _orbits(range(self.degree), alpha_images, operator.getitem)
        if max(len(o) for o in orbits) > self.block:
            return []
        last = self.degree // self.block - 1
        packings = []
        stack = [(orbits, ())]  # (orbits not yet placed, blocks so far)
        while stack:
            rest, acc = stack.pop()
            if len(acc) == last:  # the rest is the last block
                packings.append(acc + (tuple(sorted(itertools.chain(*rest))),))
                continue
            lead, others = rest[0], rest[1:]
            by_size = {}
            for i, orbit in enumerate(others):
                by_size.setdefault(len(orbit), []).append(i)
            sizes = sorted(by_size)
            room = self.block - len(lead)
            # the rest spans two blocks or more, so ``others`` is not empty
            for take in _fillings(room, sizes, [len(by_size[d]) for d in sizes]):
                groups = [itertools.combinations(by_size[d], a) for d, a in zip(sizes, take)]
                for choice in itertools.product(*groups):
                    chosen = set().union(*choice)
                    blk = itertools.chain(lead, *(others[i] for i in chosen))
                    left = [o for i, o in enumerate(others) if i not in chosen]
                    stack.append((left, acc + (tuple(sorted(blk)),)))
        return sorted(itertools.chain.from_iterable(map(itertools.permutations, packings)))

    def centralizer_orbits(self, alpha_images):
        """(``[(least partition, orbit size)]`` sorted, number of stable
        partitions) for the centralizer of alpha in Sym(degree), read off
        alpha's layout.

        The layout is alpha's orbits grouped by type (``_orbit_types``),
        each orbit as its sorted points.  The reading depends on nothing
        else, and many classes share a layout, so ``_layout_orbits`` reads
        each layout once and keeps it; the orbit types are found on every
        call."""
        layout = tuple(
            tuple(tuple(sorted(orbit)) for orbit in copies)
            for copies in _orbit_types(alpha_images, self.degree)
        )
        orbits, count = _layout_orbits(self.degree, self.block, layout)
        return list(orbits), count


@lru_cache(maxsize=1024)
def _layout_orbits(degree, block, layout):
    """(``((least partition, orbit size), ...)`` sorted, number of stable
    partitions) for the centralizer C in Sym(degree) of a commuting tuple
    alpha whose orbits, grouped by type, are ``layout``: per type, its
    orbits as sorted point tuples, in the order of their minima.

    C is the product over the isomorphism types i of alpha-orbit of
    (A|O_i) wr Sym(m_i), m_i the orbits of type i.  Its translations map
    every orbit onto itself, so they fix every stable partition into blocks
    of ``block`` points, and Sym(m_i) permutes the orbits of type i.  So an
    orbit of C is a count matrix n: block j takes n[j][i] orbits of type i,
    filling it, and the orbit has prod_i m_i! / prod_(j,i) n[j][i]!
    partitions.  It is led by the partition whose blocks, in turn, take per
    type the remaining orbits of least minimum: the least point where two
    choices for a block differ is the minimum of an orbit only one of them
    takes.  The count matrices grow on an explicit stack, so a miss leaves
    no reference cycle.  The count of stable partitions comes from the
    orbit sizes alone (``_stable_partition_count``)."""
    sizes = [len(orbits[0]) for orbits in layout]
    last = degree // block - 1
    fact = math.factorial
    chain = itertools.chain.from_iterable
    found = []  # (least partition, prod of n[j][i]!)
    stack = [((0,) * len(layout), (), 1)]  # (orbits taken per type, blocks, denominator)
    while stack:
        taken, partition, denom = stack.pop()
        if len(partition) == last:  # the rest is the last block
            rest = [orbits[t:] for orbits, t in zip(layout, taken)]
            found.append((
                partition + (tuple(sorted(chain(chain(rest)))),),
                denom * math.prod(fact(len(r)) for r in rest),
            ))
            continue
        room = [len(orbits) - t for orbits, t in zip(layout, taken)]
        for take in _fillings(block, sizes, room):
            blk = chain(chain(orbits[t:t + n] for orbits, t, n in zip(layout, taken, take)))
            stack.append((
                tuple(t + n for t, n in zip(taken, take)),
                partition + (tuple(sorted(blk)),),
                denom * math.prod(map(fact, take)),
            ))
    top = math.prod(fact(len(orbits)) for orbits in layout)
    count = _stable_partition_count(
        [size for size, orbits in zip(sizes, layout) for _ in orbits], block, last + 1
    )
    return tuple(sorted((token, top // denom) for token, denom in found)), count


def _fillings(room, sizes, most):
    """The count vectors n, n[i] <= most[i], with sum n[i] * sizes[i] ==
    room, for nonempty ``sizes``: the last count is what the others leave."""
    partial = [((), room)]
    for size, cap in zip(sizes[:-1], most):
        partial = [
            (head + (n,), left - n * size)
            for head, left in partial for n in range(min(cap, left // size) + 1)
        ]
    size, cap = sizes[-1], most[-1]
    return [
        head + (left // size,)
        for head, left in partial if left % size == 0 and left // size <= cap
    ]


def _stable_partition_count(sizes, block, blocks):
    """How many ordered partitions into ``blocks`` blocks of ``block``
    points are unions of orbits of the given ``sizes``.

    A dynamic program places the orbits one at a time.  A state is the
    sorted tuple of the blocks' fill levels, and its count is the number of
    placements that fill the blocks, in any one fixed order, to those
    levels (the same for every order).  An orbit of size s put into a block
    at level v leads to the state with one v raised to v + s; each block at
    level v + s there could have been that block."""
    states = {(0,) * blocks: 1}
    for s in sizes:
        step = {}
        for levels, ways in states.items():
            for v in set(levels):
                if v + s <= block:
                    i = levels.index(v)
                    new = tuple(sorted(levels[:i] + (v + s,) + levels[i + 1:]))
                    step[new] = step.get(new, 0) + ways * new.count(v + s)
        states = step
    return states.get((block,) * blocks, 0)


def _coset_system(G: PermGroup, H: PermGroup):
    """The coset model of G/H, after the subgroup check: ordered block
    partitions for a Young subgroup of a symmetric group, the exhaustive
    table for any other pair.  Each model checks its own index before it
    is built."""
    if not H.is_subgroup_of(G):
        raise NotSubgroup("H is not a subgroup of G")
    if G.is_full_symmetric() and isinstance(H, YoungSubgroup):
        return _BlockCosets(G.degree, H.block_size)
    return _coset_table(G, H)


def _lift(system, token, alpha):
    """(g, beta): the representative g of the token's coset and
    beta = g^-1 s g for each s in alpha, the action moved into H."""
    g = system.rep_images(token)
    ginv = _inverse(g)
    return g, tuple(_conj_images(ginv, s) for s in alpha)


def _stable_orbits(system, alpha, order):
    """(``[(token, orbit size, stabilizer order, g, beta)]``, number of
    alpha-stable tokens) for the orbits of the centralizer of alpha in G, of
    ``order`` elements, on the alpha-stable tokens, each led by its least
    token, with (g, beta) from ``_lift``.  The coset model finds them
    (``centralizer_orbits``) from what it holds: the table walks generators
    scanned from its index of G, the block model reads the orbits off
    alpha's orbit types.  A token moved off the stable ones, a size not
    dividing ``order`` and sizes not adding up to the count are
    InternalMismatch."""
    try:
        orbits, count = system.centralizer_orbits(alpha)
    except ActionNotClosed as exc:
        raise InternalMismatch("centralizer left the fixed coset set") from exc
    out = []
    for token, size in orbits:
        if order % size:
            raise InternalMismatch("orbit size does not divide the centralizer order")
        out.append((token, size, order // size) + _lift(system, token, alpha))
    if sum(entry[1] for entry in out) != count:
        raise InternalMismatch("orbit sizes do not add up to the fixed-coset count")
    return out, count
