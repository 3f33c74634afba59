"""Test-side oracles: exhaustive or second derivations of what the library
computes from structure, and helpers that only the tests use.

Nothing in ``transchrome`` imports this module.  Each name here sits
under the layer whose results it checks, and most once lived in that
layer; the tests compare the production path against it.
"""

import itertools
import json
import math
import operator
from fractions import Fraction

from transchrome import abelian, perm
from transchrome.abelian import Ambient, AbSubgroup, _check_ambient_cap, _translate
from transchrome.decomp import CONVENTION, ComponentRecord, DecompositionReport, report_to_dict
from transchrome.checks import check_prime
from transchrome.errors import (
    ActionNotClosed,
    BadParameters,
    DegreeMismatch,
    InternalMismatch,
    NotInGroup,
    ResourceLimit,
)
from transchrome.fgl import PolyRing, Series, prepare_p_series
from transchrome.homclass import (
    CommutingTuple,
    HomClass,
    _basis,
    _check_orders,
    _kernel_key,
    enumerate_hom_classes,
    lam_group,
    realize,
)
from transchrome.perm import (
    Perm,
    PermGroup,
    YoungSubgroup,
    _commute_images,
    _commuting_tuples,
    _compose,
    _inverse,
    _orbits,
    symmetric_group,
)

# -- perm: the breadth-first closure, the plain cycle walk, the blockwise centralizer scan,
# -- the full-chain centralizer generators --


def closure(degree: int, gens) -> PermGroup:
    """The group generated by ``gens``, closed breadth first under left
    multiplication by the generators and their inverses; ResourceLimit as
    soon as it lists more elements than the cap.  The reference for
    ``perm.StabilizerChain`` and ``perm.generate``."""
    gens = tuple(gens)
    for g in gens:
        if g.degree != degree:
            raise DegreeMismatch("generator degree %d != %d" % (g.degree, degree))
    cap = perm.MAX_ELEMENTS
    ident = Perm.identity(degree)
    seen = {ident.images: ident}
    frontier = [ident]
    gen_perms = [g for g in gens] + [g.inverse() for g in gens]
    while frontier:
        new_frontier = []
        for h in frontier:
            for g in gen_perms:
                prod = g * h
                if prod.images not in seen:
                    seen[prod.images] = prod
                    new_frontier.append(prod)
                    if len(seen) > cap:
                        raise ResourceLimit("closure exceeds cap of %d elements" % cap)
        frontier = new_frontier
    return PermGroup(degree, seen.values(), generators=gens)


def cycle_lists(images):
    """The cycles of a permutation of length > 1, each from its least
    point, by least point: the reference for ``perm.Perm.cycles``."""
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        nxt = images[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = images[nxt]
        if len(cyc) > 1:
            out.append(cyc)
    return out


def centralizer_factors(ambient: PermGroup, perms):
    """The centralizer of ``perms`` in ``ambient`` as direct factors with
    disjoint supports: a list of factors, each a list of image tuples, whose
    product is the centralizer.

    Inside a Young subgroup of several blocks the permutations act blockwise,
    so there is one factor per block, the elements of Sym(block) (fixing
    every other point) that commute with the permutations there: c * b!
    candidates are scanned instead of (b!)^c.  Every other group is one
    factor, the scan of the whole group.
    """
    perms = list(perms)
    for s in perms:
        if s not in ambient:
            raise NotInGroup("%r is not in the ambient group" % s)
    imgs = [s.images for s in perms]
    if isinstance(ambient, YoungSubgroup) and ambient.blocks > 1:
        b = ambient.block_size
        ident = tuple(range(ambient.degree))
        factors = []
        for lo in range(0, ambient.degree, b):
            hi = lo + b
            factors.append([
                ident[:lo] + t + ident[hi:]
                for t in itertools.permutations(range(lo, hi))
                # the permutations preserve the block, so t is checked there
                if all(t[s[i] - lo] == s[t[i - lo]] for s in imgs for i in range(lo, hi))
            ])
        return factors
    scan = (g.images for g in ambient.iter_elements())
    return [[g for g in scan if all(_commute_images(g, s) for s in imgs)]]


def orbit_type_generators(imgs, degree):
    """Generators, as image tuples, of the centralizer in Sym(degree) of
    the commuting image tuples ``imgs``, read off their orbits.

    The group A they generate is abelian, and its centralizer is the
    product over the isomorphism types of A-orbit O of (A|O) wr Sym(m), m
    the copies of O (a transitive abelian group is its own centralizer).
    Per type (``perm._orbit_types``): each generator restricted to the
    first copy, where it moves it; a swap of the first two copies; and,
    from three copies on, a cycle of all of them, each moving the points
    of a copy to the same positions of the next.  Nothing here checks that
    ``imgs`` commute."""
    gens = []
    for copies in perm._orbit_types(imgs, degree):
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


def full_chain_centralizer(beta, degree, block):
    """(W, |<W>|) for beta in Sym(block)^(degree/block), with one
    ``StabilizerChain`` over all the points of each block: per block, the
    ``orbit_type_generators`` of beta there, kept where they enlarge the
    block's chain (``perm._chain_generators``) and embedded at the block;
    |<W>| the product of the blocks' chain orders.  Sym(degree) is block =
    degree, one chain over every point.  The reference for
    ``perm._centralizer``, which proves each orbit type once."""
    ident = tuple(range(degree))
    gens, order = [], 1
    for lo in range(0, degree, block):
        local = [tuple(v - lo for v in s[lo:lo + block]) for s in beta]
        kept, local_order = perm._chain_generators(block, orbit_type_generators(local, block))
        gens.extend(ident[:lo] + tuple(lo + v for v in t) + ident[lo + block:] for t in kept)
        order *= local_order
    return gens, order


# -- perm: cosets as objects, their orbits and stabilizers, pairwise orbit isomorphism, conjugacy search --


class Coset:
    """A left coset gH, identified by its lexicographically minimal element."""

    __slots__ = ("rep", "subgroup")

    def __init__(self, rep: Perm, subgroup: PermGroup):
        self.rep = rep
        self.subgroup = subgroup

    def __eq__(self, other):
        return (
            isinstance(other, Coset)
            and self.rep == other.rep
            and self.subgroup == other.subgroup
        )

    def __lt__(self, other):
        return self.rep < other.rep

    def __hash__(self):
        return hash((self.rep, self.subgroup.order))

    def __contains__(self, g: Perm) -> bool:
        return (self.rep.inverse() * g) in self.subgroup

    def __repr__(self):
        return "Coset[%s]" % self.rep.cycles()


def left_cosets(G: PermGroup, H: PermGroup):
    """The [G:H] left cosets of the exhaustive coset table, each with its
    canonical (lex-minimal) representative, in the table's token order."""
    return [Coset(Perm(rep), H) for rep in perm._coset_table(G, H)._reps]


def fixed_cosets(G: PermGroup, H: PermGroup, perms):
    """Cosets gH with s*gH == gH for every s in ``perms``."""
    perms = list(perms)
    for s in perms:
        if s not in G:
            raise NotInGroup("%r not in G" % s)
    table = perm._coset_table(G, H)
    return [Coset(Perm(table.rep_images(t)), H) for t in table.fixed([s.images for s in perms])]


def coset_orbits(C: PermGroup, cosets):
    """Orbits of C on a coset list by left multiplication.

    Returns ``[(representative coset, stabilizer subgroup)]`` sorted by
    representative; raises ActionNotClosed if C moves a coset off the list.

    The stabilizer comes from the walk's steps (Schreier's lemma): with u_x
    in C taking the orbit's first coset gH to x, found along the walk, the
    elements u_(c x)^-1 c u_x over the steps (x, c, c x) generate it.  Those
    that enlarge a ``StabilizerChain`` (``perm._chain_generators``) are
    checked to fix gH and closed; InternalMismatch unless
    |orbit| * |stabilizer| = |C|.
    """
    cosets = list(cosets)
    if not cosets:
        return []
    H = cosets[0].subgroup
    # g*h for every h in H, one itemgetter call each; on one point the
    # getter would give a point, not a tuple, and H is trivial
    getters = [operator.itemgetter(*h.images) for h in H.iter_elements()] if C.degree > 1 else [tuple]
    pool = {c.rep.images: c for c in cosets}

    def act_images(c_images, rep_images):
        g = _compose(c_images, rep_images)
        moved = min([get(g) for get in getters])
        if moved not in pool:
            raise ActionNotClosed("group moves a coset outside the given list")
        return moved

    gens = [g.images for g in C.working_generators()]
    walk = _orbits(pool, gens, act_images)
    # the walk's steps in its order: the x of a step leads its orbit or is
    # the image of an earlier step
    edges = [(x, c, act_images(c, x)) for orbit in walk for x in orbit for c in gens]
    ident = tuple(range(C.degree))
    transversal = {orbit[0]: (ident, orbit[0]) for orbit in walk}  # x -> (u_x, first)
    schreier = {orbit[0]: [] for orbit in walk}
    for x, c, y in edges:
        u_x, first = transversal[x]
        cu = _compose(c, u_x)
        if y in transversal:
            schreier[first].append(_compose(_inverse(transversal[y][0]), cu))
        else:
            transversal[y] = (cu, first)
    orbits = []
    for orbit in walk:
        g = pool[orbit[0]].rep.images
        ginv = _inverse(g)
        kept = perm._chain_generators(C.degree, schreier[orbit[0]], C.order // len(orbit))[0]
        # c fixes gH exactly when g^-1 c g is in H
        if not all(Perm(_compose(ginv, _compose(c, g))) in H for c in kept):
            raise InternalMismatch("a Schreier generator moves its coset")
        stab = closure(C.degree, map(Perm, kept))
        if len(orbit) * stab.order != C.order:
            raise InternalMismatch(
                "orbit of %d cosets and stabilizer of order %d in a group of order %d"
                % (len(orbit), stab.order, C.order)
            )
        orbits.append((pool[orbit[0]], stab))
    return orbits


def isomorphism(first, base, imgs):
    """The map of A-sets from the orbit ``first`` of A = <imgs> onto the
    orbit of ``base`` that sends first[0] to base, or None when the orbits
    are not isomorphic (the map does not extend along imgs), built depth
    first: the reference for the grouping by shape in ``perm._orbit_types``."""
    phi = {first[0]: base}
    frontier = [first[0]]
    while frontier:
        x = frontier.pop()
        for s in imgs:
            x1, y1 = s[x], s[phi[x]]
            known = phi.get(x1)
            if known is None:
                phi[x1] = y1
                frontier.append(x1)
            elif known != y1:
                return None
    return phi


def orbit_types_by_isomorphism(imgs, degree):
    """The orbits of <imgs> grouped by testing each against the first orbit
    of every type found so far with ``isomorphism``: per type, the list of
    (orbit, map from the type's first orbit onto it)."""
    types = []
    for orbit in _orbits(range(degree), imgs, operator.getitem):
        for copies in types:
            first = copies[0][0]
            phi = len(first) == len(orbit) and isomorphism(first, orbit[0], imgs)
            if phi:
                copies.append((orbit, phi))
                break
        else:
            types.append([(orbit, dict(zip(orbit, orbit)))])
    return types


def conjugating_element(G: PermGroup, a, b):
    """Some g in G with g*a_i*g^{-1} == b_i for all i, or None; exhaustive."""
    a = list(a)
    b = list(b)
    if len(a) != len(b):
        raise ValueError("tuples must have equal length")
    for s in itertools.chain(a, b):
        if s not in G:
            raise NotInGroup("%r not in G" % s)
    a_imgs = [s.images for s in a]
    b_imgs = [s.images for s in b]
    n = G.degree
    for g in G.iter_elements():
        gi = g.images
        # g*s == t*g avoids computing an explicit inverse
        if all(gi[s[i]] == t[gi[i]] for s, t in zip(a_imgs, b_imgs) for i in range(n)):
            return g
    return None


# -- homclass: checked tuples, the walk over lam, the table realize, centralizers as Perms, tuple counts --


def make_tuple(perms, lam) -> CommutingTuple:
    """A commuting tuple of rank lam.h whose entries have orders dividing
    p^k; BadParameters, NotCommuting or OrderNotPPower otherwise."""
    perms = tuple(perms)
    if not perms:
        raise BadParameters("empty tuple")
    if len(perms) != lam.h:
        raise BadParameters("tuple length %d != rank %d" % (len(perms), lam.h))
    t = CommutingTuple(perms[0].degree, perms)
    _check_orders([s.images for s in perms], lam.p, lam.k)
    return t


def power_tables(imgs, modulus):
    """Per image tuple s, its powers s^0, ..., s^(modulus - 1)."""
    tables = []
    for s in imgs:
        powers = [tuple(range(len(s)))]
        for _ in range(modulus - 1):
            powers.append(_compose(s, powers[-1]))
        tables.append(powers)
    return tables


def stabilizer(tables, basis, base):
    """The set of packed elements of lam that fix the point ``base``;
    ``basis`` is lam's ``_basis``.

    Walked coordinate by coordinate: ``reached`` maps each point to the
    packed prefixes c_0 e_0 + ... + c_i e_i (0 <= c_j < p^k, so no field
    overflows) that move base there, so every element costs one add, not
    one table lookup per coordinate."""
    reached = {base: [0]}
    for table, unit in zip(tables, basis):
        step = {}
        for x, prefixes in reached.items():
            for c, row in enumerate(table):
                shift = c * unit
                step.setdefault(row[x], []).extend([key + shift for key in prefixes])
        reached = step
    return set(reached[base])


def kernel_by_walk(lam, shape) -> AbSubgroup:
    """The kernel of a transitive orbit from its shape, as the stabilizer
    of point 0 found by walking all of lam over the shape's power tables."""
    return AbSubgroup._of_keys(lam, stabilizer(power_tables(shape, lam.modulus), _basis(lam), 0))


def coset_layout(kernel: AbSubgroup):
    """Cosets of the kernel in canonical order, on packed elements:
    (reps, element -> coset idx), from one pass over all of lam."""
    lam = kernel.ambient
    lookup = {}
    reps = []
    for x in ambient_keys(lam):
        if x in lookup:
            continue
        lookup.update(dict.fromkeys(_translate(lam, kernel._keys, x), len(reps)))
        reps.append(x)
    return tuple(reps), lookup


def realize_by_layout(hc: HomClass) -> CommutingTuple:
    """``realize`` from a table of every element of lam: each orbit is the
    coset space lam/kernel, generator i translating its canonical coset
    representatives and looking the sums up."""
    lam = hc.lam
    degree = hc.points
    images = [list(range(degree)) for _ in range(lam.h)]
    offset = 0
    basis = _basis(lam)
    for kernel, mult in hc.orbit_types:
        reps, lookup = coset_layout(kernel)
        size = len(reps)
        for _ in range(mult):
            for i, e in enumerate(basis):
                for local, target in enumerate(_translate(lam, reps, e)):
                    images[i][offset + local] = offset + lookup[target]
            offset += size
    return CommutingTuple(degree, tuple(Perm(img) for img in images))


def classify_by_walk(t: CommutingTuple, lam) -> HomClass:
    """The class invariant of a commuting tuple with every orbit's kernel
    found by walking all of lam: the stabilizer of the orbit's minimum,
    read off power tables of the whole tuple, once per orbit."""
    imgs = [s.images for s in t.perms]
    if len(imgs) != lam.h:
        raise BadParameters("tuple length %d != rank %d" % (len(imgs), lam.h))
    _check_orders(imgs, lam.p, lam.k)
    _check_ambient_cap(lam)
    tables = power_tables(imgs, lam.modulus)
    basis = _basis(lam)
    counts = {}
    for orbit in _orbits(range(t.degree), imgs, operator.getitem):
        kernel = AbSubgroup._of_keys(lam, stabilizer(tables, basis, orbit[0]))
        counts[kernel] = counts.get(kernel, 0) + 1
    orbit_types = tuple(sorted(counts.items(), key=lambda kv: _kernel_key(kv[0])))
    return HomClass(lam, orbit_types)


def centralizer_generators(hc):
    """Generators of the centralizer of realize(hc) in Sym(points), read off
    its orbits by ``orbit_type_generators``, as Perms."""
    imgs = [s.images for s in realize(hc).perms]
    return [Perm(g) for g in orbit_type_generators(imgs, hc.points)]


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


def class_equation_sum(p: int, h: int, k: int) -> Fraction:
    """|Hom(lam, Sym(n))|, n = p^k and lam = (Z/p^k)^h, by the exponential
    formula: sum_n |Hom(lam, Sym(n))| x^n / n! = exp(sum_U x^[lam:U] / [lam:U])
    over the subgroups U of finite index.  By duality lam has as many
    subgroups of index p^j as of order p^j, ``count_sublattices(h, p, j)``
    for j <= k.  The class equation says this is the sum over the hom
    classes alpha into Sym(n) of n! / |C(alpha)|; nothing here lists a
    class.  Exact: exp(f) is expanded by e_m = (1/m) sum_i i f_i e_(m-i)."""
    n = p ** k
    f = [Fraction(0)] * (n + 1)
    for j in range(k + 1):
        f[p ** j] = Fraction(abelian.count_sublattices(h, p, j), p ** j)
    e = [Fraction(1)] + [Fraction(0)] * n
    for m in range(1, n + 1):
        e[m] = sum(i * f[i] * e[m - i] for i in range(1, m + 1)) / m
    return math.factorial(n) * e[n]


# -- abelian: tuple arithmetic in an ambient group, closure --


def ambient_zero(amb):
    return (0,) * amb.h


def ambient_add(amb, x, y):
    q = amb.modulus
    return tuple((a + b) % q for a, b in zip(x, y))


def ambient_neg(amb, x):
    q = amb.modulus
    return tuple((-a) % q for a in x)


def ambient_scale(amb, c, x):
    q = amb.modulus
    return tuple((c * a) % q for a in x)


def ambient_keys(amb):
    """Every packed element of an ``Ambient``, in ascending order, after
    its cap check."""
    _check_ambient_cap(amb)
    F, q = amb._layout[:2]
    keys = [0]
    for _ in range(amb.h):
        keys = [x << F | d for x in keys for d in range(q)]
    return tuple(keys)


def ambient_elements(amb):
    """Every element of an ``Ambient`` as an h-tuple, in ascending order."""
    return tuple(map(amb._unpack, ambient_keys(amb)))


def full_subgroup(amb) -> AbSubgroup:
    """The whole ``Ambient`` as a subgroup, listed."""
    return AbSubgroup._of_keys(amb, set(ambient_keys(amb)))


def is_closed(sub: AbSubgroup) -> bool:
    """Whether the element set of ``sub`` is closed under negation and sums."""
    amb = sub.ambient
    eset = set(sub.elements)
    return all(
        ambient_neg(amb, x) in eset and all(ambient_add(amb, x, y) in eset for y in eset)
        for x in eset
    )


# -- decomp: the split-model listing behind the fiber ranks --


def fiber_ranks(p: int, n: int, t: int, k: int) -> dict:
    """Every fiber rank at once: {projection element tuple: count}.

    Each order-p^k subgroup of the split model (Z/p^k)^t + (Z/p^k)^{n-t},
    the formal part the first t coordinates and the etale part the last
    n-t, is projected onto the etale part exactly once; the count under a
    subgroup L's sorted element tuple is the number of subgroups projecting
    exactly onto L.

    A packed element's field width depends on p^k alone and the etale
    coordinates are its low n-t fields, so one mask projects it: the masked
    ints are packed elements of (Z/p^k)^{n-t}, which sort as their tuples
    do.  Only the distinct projections are decoded.
    """
    if not 0 <= t < n:
        raise BadParameters("need 0 <= t < n")
    check_prime(p)
    split = Ambient(p, k, n)
    abelian._check_ambient_cap(split)
    etale = Ambient(p, k, n - t)
    mask = (1 << etale._layout[0] * (n - t)) - 1
    counts = {}
    for sub in abelian.subgroups_of_ambient(split, order=p ** k):
        proj = tuple(sorted({key & mask for key in sub._keys}))
        counts[proj] = counts.get(proj, 0) + 1
    return {tuple(map(etale._unpack, proj)): count for proj, count in counts.items()}


# -- decomp: reading a report back --


def report_from_dict(data: dict) -> DecompositionReport:
    p, n, t, k = data["p"], data["n"], data["t"], data["k"]
    lam = lam_group(p, n - t, k)
    classes = {hc.class_id(): hc for hc in enumerate_hom_classes(p, n - t, k)}
    records = []
    for comp in data["components"]:
        L = AbSubgroup.span(lam, [tuple(g) for g in comp["L"]["generators"]])
        if L.order != comp["L"]["order"]:
            raise ValueError("inconsistent dual image in report")
        records.append(
            ComponentRecord(
                hom_class=classes[comp["class_id"]],
                isotypic=comp["isotypic"],
                m=comp["m"],
                dual_image=L,
                ideal_trivial=comp["ideal_trivial"],
                fiber_rank=comp["fiber_rank"],
                centralizer_order=comp["centralizer_order"],
            )
        )
    return DecompositionReport(
        p=p, n=n, t=t, k=k,
        records=tuple(records),
        total_degree=data["degree"],
        rank_sum=data["rank_sum"],
        convention=data.get("convention", CONVENTION),
    )


def report_to_json(report: DecompositionReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"


def report_from_json(text: str) -> DecompositionReport:
    return report_from_dict(json.loads(text))


# -- fgl: dict arithmetic on coefficients, the modular twin of the tests' QPolyRing --


def pack(ring, e) -> int:
    """The packed int of a u-exponent tuple over a ``PolyRing``: its
    exponents as base-b digits, u_1's the lowest (``PolyRing.unpack``
    inverts it)."""
    u = 0
    for d in reversed(e):
        u = u * ring.b + d
    return u


def zero_exp(ring):
    """The u-exponent tuple of the constant monomial 1."""
    return (0,) * ring.r


class ModPolyRing(PolyRing):
    """A ``PolyRing`` with arithmetic on its dict coefficients: (Z/p^a)[u]
    truncated below u-degree b, one tuple-keyed dict per element.  It
    compares and hashes as the plain ring of its layout, so a series over
    either is the same series."""

    @classmethod
    def of(cls, ring):
        """The arithmetic ring of a ring's layout."""
        return ring if isinstance(ring, cls) else cls(ring.p, ring.a, ring.b, ring.r)

    def zero(self):
        return {}

    def one(self):
        return {zero_exp(self): 1}

    def const(self, c):
        c %= self.mod
        return {zero_exp(self): c} if c else {}

    def add(self, f, g):
        out = dict(f)
        for e, c in g.items():
            v = (out.get(e, 0) + c) % self.mod
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return out

    def neg(self, f):
        return {e: self.mod - c for e, c in f.items()}

    def mul(self, f, g):
        out = {}
        b = self.b
        for e1, c1 in f.items():
            d1 = sum(e1)
            for e2, c2 in g.items():
                if d1 + sum(e2) >= b:
                    continue
                e = tuple(x + y for x, y in zip(e1, e2))
                v = (out.get(e, 0) + c1 * c2) % self.mod
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return out

    def scale(self, c, f):
        c %= self.mod
        out = {}
        for e, v in f.items():
            w = (c * v) % self.mod
            if w:
                out[e] = w
        return out

    def residue(self, f) -> int:
        """Image in the residue field: kill the parameters, reduce mod p."""
        return f.get(zero_exp(self), 0) % self.p

    def is_unit(self, f) -> bool:
        return self.residue(f) != 0

    def inv(self, f):
        """Inverse of a unit: invert the constant, then a geometric series in
        the topologically nilpotent remainder."""
        if not self.is_unit(f):
            raise BadParameters("cannot invert a non-unit")
        c0 = f.get(zero_exp(self), 0)
        c0_inv = pow(c0, -1, self.mod)
        # f = c0 (1 - w) with w in the maximal ideal
        w = self.scale(-c0_inv, f)
        w = self.add(w, self.one())
        out = self.one()
        power = self.one()
        for _ in range(self.a + self.b):
            power = self.mul(power, w)
            if not power:
                break
            out = self.add(out, power)
        return self.scale(c0_inv, out)


def series_of(ring, D, coeffs) -> Series:
    """The series of {x-exponent: {u-exponent tuple: int}}; terms of
    x-degree >= D or u-degree >= b are dropped, coefficients reduced
    mod p^a."""
    terms = {}
    mod, M = ring.mod, ring.M
    for e, poly in coeffs.items():
        if e >= D:
            continue
        for ue, c in poly.items():
            c %= mod
            if c and sum(ue) < ring.b:
                terms[e * M + pack(ring, ue)] = c
    return Series(ring, D, terms)


def coeff(series, e):
    """The x^e coefficient of a series, as {u-exponent tuple: c}."""
    return series.coeffs.get(e, {})


def param(ring, i):
    """The parameter u_i of a ``PolyRing``, 1 <= i <= ring.r."""
    if not 1 <= i <= ring.r:
        raise BadParameters("no parameter u_%d in this ring" % i)
    exp = tuple(1 if j == i - 1 else 0 for j in range(ring.r))
    return {exp: 1} if ring.b > 1 else {}


def torsion_rank(ctx, k: int) -> int:
    """Degree of the prepared [p^k]-series; the p^k-torsion rank p^{kn}."""
    return prepare_p_series(ctx, k)[1].degree()
