"""Generalized class functions and the transfer/induction formula.

A class function here assigns an exact rational to every conjugacy class of
actions of L = (Z/p^k)^h on the permuted points of a group.  Induction
along H <= G is computed two independent ways: as a plain sum over the
alpha-stable cosets, and as an orbit-grouped sum weighted by stabilizer
indices.  Their pointwise agreement is the combinatorial content of the
transfer formula, and the orbit data also drives the transfer-ideal
triviality decision.  A Young subgroup H = Sym(b)^c is never enumerated:
its class table is read blockwise off one table of Sym(b), its cosets are
ordered block partitions, and C_H(beta) is a product of blockwise
centralizers.  Each coset stabilizer is verified factor by factor: the
elements of the blockwise centralizers are checked, not their product
(see ``_verify_stabilizer``).

The codomain of the underlying character theory is modelled by one rational
scalar per class; the transfer along an inclusion of centralizers acts as
multiplication by the index.  This is the exact shape of the classical
induced-character formula and is the maximal desk-scale shadow of the ring
statement; the genuine module structure is out of scope.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import homclass as hc_mod
from .abelian import Ambient
from .errors import (
    ActionNotClosed,
    InternalMismatch,
    NotInGroup,
    NotSubgroup,
    ResourceLimit,
)
from .homclass import (
    CommutingTuple,
    HomClass,
    _BlockCosets,
    classify,
    enumerate_hom_classes,
    realize,
)
from .perm import (
    Perm,
    PermGroup,
    YoungSubgroup,
    _commute_images,
    _commuting_tuples,
    _compose,
    _conj_images,
    _coset_table,
    _inverse,
    _orbit_reps,
    centralizer,
    centralizer_factors,
    symmetric_group,
)

GENERIC_TABLE_CAP = 10 ** 4
INDEX_CAP = 10 ** 5


class SymmetricClassTable:
    """Hom classes into the full symmetric group on p^k points.

    Keys are HomClass invariants; membership tests classify a tuple by its
    orbit kernels, so the full group is never materialized.
    """

    def __init__(self, lam: Ambient):
        self.lam = lam
        self.degree = lam.p ** lam.k
        self.group = symmetric_group(self.degree)
        self.classes = tuple(enumerate_hom_classes(lam.p, lam.h, lam.k))
        self._reps = {}

    def key_of_images(self, imgs):
        perms = tuple(Perm(t) for t in imgs)
        return classify(CommutingTuple(self.degree, perms), self.lam)

    def rep_images(self, key: HomClass):
        reps = self._reps.get(key)
        if reps is None:
            reps = tuple(p.images for p in realize(key).perms)
            self._reps[key] = reps
        return reps

    def centralizer_order(self, key: HomClass) -> int:
        return hc_mod.centralizer_order(key)

    def centralizer_generators(self, key: HomClass):
        return hc_mod.centralizer_generators(key)

    def class_id(self, key: HomClass) -> str:
        return key.class_id()


class GenericClassTable:
    """Hom classes into an arbitrary small group, by exhaustive conjugation.

    Keys are the lexicographically minimal tuples in each conjugation orbit.
    """

    def __init__(self, group: PermGroup, lam: Ambient):
        if group.order > GENERIC_TABLE_CAP:
            raise ResourceLimit(
                "group of order %d too large for exhaustive class table" % group.order
            )
        self.group = group
        self.lam = lam
        self.degree = group.degree
        cap = lam.p ** lam.k
        pool = [g.images for g in group.iter_elements() if cap % g.order() == 0]
        conjugators = [g.images for g in group.iter_elements()]
        lookup = {}
        classes = []
        cent_orders = {}
        for tup in _commuting_tuples(pool, lam.h):
            if tup in lookup:
                continue
            orbit = set()
            for c in conjugators:
                orbit.add(tuple(_conj_images(c, s) for s in tup))
            for member in orbit:
                lookup[member] = tup
            classes.append(tup)
            if group.order % len(orbit):
                raise InternalMismatch("orbit size does not divide group order")
            cent_orders[tup] = group.order // len(orbit)
        self.classes = tuple(classes)
        self._lookup = lookup
        self._cent_orders = cent_orders

    def key_of_images(self, imgs):
        try:
            return self._lookup[imgs]
        except KeyError:
            raise NotInGroup("tuple is not an action inside this group") from None

    def rep_images(self, key):
        return key

    def centralizer_order(self, key) -> int:
        return self._cent_orders[key]

    def centralizer_generators(self, key):
        return centralizer(self.group, [Perm(s) for s in key]).elements

    def class_id(self, key) -> str:
        return ";".join(Perm(s).cycles() for s in key)


class ProductClassTable(GenericClassTable):
    """Hom classes into a Young subgroup Sym(b)^c, read blockwise off one
    exhaustive table of Sym(b).

    Conjugation acts blockwise, so the lex-minimal conjugate of a tuple is
    the join of its blockwise lex-minimal conjugates: keys, class order, ids
    and centralizer orders are exactly ``GenericClassTable``'s.
    """

    def __init__(self, group: YoungSubgroup, lam: Ambient):
        if group.order > GENERIC_TABLE_CAP:
            raise ResourceLimit(
                "group of order %d too large for exhaustive class table" % group.order
            )
        self.group, self.lam, self.degree = group, lam, group.degree
        self.factor = GenericClassTable(symmetric_group(group.block_size), lam)
        self._cent_orders = {
            self._join(parts): math.prod(map(self.factor.centralizer_order, parts))
            for parts in itertools.product(self.factor.classes, repeat=group.blocks)
        }
        self.classes = tuple(sorted(self._cent_orders))

    def _join(self, parts):
        b = self.group.block_size
        return tuple(
            tuple(j * b + v for j, part in enumerate(parts) for v in part[i])
            for i in range(self.lam.h)
        )

    def key_of_images(self, imgs):
        if any(len(s) != self.degree for s in imgs):
            raise NotInGroup("tuple is not an action inside this group")
        b = self.group.block_size
        # a block image outside the block is no Sym(b) tuple: NotInGroup
        return self._join([
            self.factor.key_of_images(tuple(tuple(v - lo for v in s[lo:lo + b]) for s in imgs))
            for lo in range(0, self.degree, b)
        ])


@lru_cache(maxsize=None)
def class_table(group: PermGroup, lam: Ambient):
    """The canonical class table for a group: full symmetric groups of degree
    p^k get the invariant-based table, Young subgroups the product table,
    everything else the exhaustive one."""
    if group.is_full_symmetric() and group.degree == lam.p ** lam.k:
        return SymmetricClassTable(lam)
    if isinstance(group, YoungSubgroup):
        return ProductClassTable(group, lam)
    return GenericClassTable(group, lam)


class GenClassFunction:
    """A total function from the hom classes of a group to exact rationals."""

    __slots__ = ("table", "values")

    def __init__(self, table, values):
        vals = {}
        for key in table.classes:
            if key not in values:
                raise ValueError("missing value for class %s" % table.class_id(key))
            value = values[key]
            vals[key] = value if isinstance(value, Fraction) else Fraction(value)
        if len(values) != len(table.classes):
            raise ValueError("values contain keys outside the class table")
        self.table = table
        self.values = vals

    @classmethod
    def constant(cls, table, value) -> "GenClassFunction":
        return cls(table, {key: Fraction(value) for key in table.classes})

    @classmethod
    def indicator(cls, table, key) -> "GenClassFunction":
        return cls(table, {k: Fraction(1 if k == key else 0) for k in table.classes})

    @classmethod
    def random(cls, table, rng) -> "GenClassFunction":
        return cls(
            table,
            {
                key: Fraction(rng.randint(-20, 20), rng.randint(1, 12))
                for key in table.classes
            },
        )

    def __getitem__(self, key) -> Fraction:
        return self.values[key]

    def __eq__(self, other):
        return (
            isinstance(other, GenClassFunction)
            and self.table is other.table
            and self.values == other.values
        )

    def items(self):
        return [(key, self.values[key]) for key in self.table.classes]

    def to_json_dict(self):
        return {
            self.table.class_id(key): str(self.values[key])
            for key in self.table.classes
        }

    @classmethod
    def from_json_dict(cls, table, data) -> "GenClassFunction":
        if not isinstance(data, dict):
            raise ValueError("a class function is a JSON object {class id: value}")
        by_id = {table.class_id(key): key for key in table.classes}
        values = {}
        for cid, text in data.items():
            if cid not in by_id:
                raise ValueError("unknown class id %r" % cid)
            try:
                values[by_id[cid]] = Fraction(text)
            except (TypeError, ZeroDivisionError) as exc:
                raise ValueError("bad value %r for class %s" % (text, cid)) from exc
        return cls(table, values)

    def __repr__(self):
        return "GenClassFunction(%s)" % self.to_json_dict()


def inner_product(a: GenClassFunction, b: GenClassFunction) -> Fraction:
    """Sum over classes of a*b / centralizer order; reciprocity holds exactly
    for this normalization."""
    if a.table is not b.table:
        raise ValueError("class functions live on different tables")
    total = Fraction(0)
    for key in a.table.classes:
        total += a[key] * b[key] / a.table.centralizer_order(key)
    return total


# ---------------------------------------------------------------------------
# coset systems


class _GenericCosets:
    """Left cosets from the exhaustive coset table."""

    def __init__(self, G: PermGroup, H: PermGroup):
        cosets, index = _coset_table(G, H)
        self._reps = tuple(c.rep.images for c in cosets)
        self._index = index

    def rep_images(self, token):
        return self._reps[token]

    def act(self, c_images, token):
        return self._index[_compose(c_images, self._reps[token])]

    def fixed(self, alpha_images):
        tokens = range(len(self._reps))
        return [t for t in tokens if all(self.act(s, t) == t for s in alpha_images)]


def _coset_system(G: PermGroup, H: PermGroup):
    if not H.is_subgroup_of(G):
        raise NotSubgroup("H is not a subgroup of G")
    if G.order // H.order > INDEX_CAP:
        raise ResourceLimit("index exceeds cap")
    if G.is_full_symmetric() and isinstance(H, YoungSubgroup):
        return _BlockCosets(G.degree, H.block_size)
    return _GenericCosets(G, H)


# ---------------------------------------------------------------------------
# transfer data


@dataclass(frozen=True)
class OrbitRecord:
    """One centralizer orbit of alpha-stable cosets."""

    coset_rep: Perm
    h_key: object
    stabilizer_order: int
    index: int  # [C_G(im alpha) : stabilizer] = orbit size


@dataclass(frozen=True)
class TransferDatum:
    alpha_key: object
    fixed_count: int
    centralizer_order: int
    records: tuple

    def is_empty(self) -> bool:
        return not self.records

    def ideal_trivial(self, p: int, t_is_zero: bool) -> bool:
        """Decide whether the transfer ideal attached to the class is the
        whole ring.

        With p inverted (t_is_zero) any nonzero transfer is already
        surjective, so the ideal is trivial exactly when some coset is
        alpha-stable.  In the p-local case the transfer composed with
        restriction multiplies by the orbit index, so an index prime to p
        makes the transfer surjective; otherwise every contribution lands in
        the ideal (p) + augmentation of a connected local-type ring and the
        quotient is nonzero.
        """
        if t_is_zero:
            return self.fixed_count > 0
        return any(rec.index % p != 0 for rec in self.records)


def _beta_images(g, alpha):
    """g^{-1} * s * g for each s in alpha: the action moved into H by g."""
    ginv = _inverse(g)
    return tuple(_conj_images(ginv, s) for s in alpha)


def _build_datum(g_table, h_table, system, alpha_key, fixed) -> TransferDatum:
    """Orbit records for one class, given its alpha-stable cosets ``fixed``."""
    alpha = g_table.rep_images(alpha_key)
    cent_order = g_table.centralizer_order(alpha_key)
    gen_images = [g.images for g in g_table.centralizer_generators(alpha_key)]
    try:
        orbits = _orbit_reps(fixed, gen_images, system.act)
    except ActionNotClosed as exc:
        raise InternalMismatch("centralizer left the fixed coset set") from exc
    records = []
    for token, size in orbits:
        if cent_order % size:
            raise InternalMismatch("orbit size does not divide centralizer order")
        stab_order = cent_order // size
        g = system.rep_images(token)
        beta = _beta_images(g, alpha)
        h_key = h_table.key_of_images(beta)
        _verify_stabilizer(
            system, token, g, alpha, beta, h_table.group, stab_order,
            h_table.centralizer_order(h_key),
        )
        records.append(
            OrbitRecord(
                coset_rep=Perm(g),
                h_key=h_key,
                stabilizer_order=stab_order,
                index=size,
            )
        )
    if sum(r.index for r in records) != len(fixed):
        raise InternalMismatch("orbit sizes do not add up to the fixed-coset count")
    return TransferDatum(
        alpha_key=alpha_key,
        fixed_count=len(fixed),
        centralizer_order=cent_order,
        records=tuple(records),
    )


def _verify_stabilizer(system, token, g, alpha, beta, H, stab_order, table_order):
    """Check that the stabilizer of the coset in C_G(alpha) is
    g * C_H(beta) * g^{-1}, factor by factor.

    ``perm.centralizer_factors`` gives C_H(beta) as direct factors f_i with
    disjoint supports.  Each is a subgroup (the centralizer of beta in the
    symmetric group of one block, or in H when there is one factor), and
    factors with disjoint supports commute, so together they generate their
    direct product, of order prod |f_i|.  Every element of every factor,
    conjugated by g, is checked to commute with alpha and to fix the coset;
    the stabilizer is a subgroup, so it contains the group those elements
    generate, the conjugate of the product.  That order is checked to be
    ``stab_order`` (orbit-stabilizer), so containment plus count gives
    equality, with sum |f_i| element checks instead of prod |f_i|.  It is
    also checked to be ``table_order``, the class table's |C_H(beta)|,
    found without this scan (from a conjugation orbit, or from the orbit
    types in Sym(p^k)): an element commuting with alpha once conjugated by
    g commutes with beta, so the product lies in C_H(beta) and, with that
    order, is all of it.  With one factor this is the element-wise check of
    the whole centralizer.
    """
    factors = centralizer_factors(H, [Perm(s) for s in beta])
    order = math.prod(map(len, factors))
    if order != stab_order:
        raise InternalMismatch(
            "conjugated subgroup centralizer has order %d, stabilizer has order %d"
            % (order, stab_order)
        )
    if order != table_order:
        raise InternalMismatch(
            "centralizer factors have order %d, the class table gives %d"
            % (order, table_order)
        )
    for factor in factors:
        for c in factor:
            conj = _conj_images(g, c)
            if not all(_commute_images(conj, s) for s in alpha):
                raise InternalMismatch("claimed stabilizer element is not in the centralizer")
            if system.act(conj, token) != token:
                raise InternalMismatch("claimed stabilizer element moves the coset")


@lru_cache(maxsize=None)
def _induction_data(g_table_key, h_table_key):
    """Per G-class, the plain table and the orbit records.

    The plain table classifies every alpha-stable coset gH on its own, by
    the H-class of g^{-1} alpha g, and keeps (H-class, multiplicity) pairs.
    The orbit records come from ``_build_datum``.  The orbit/lift bijection
    says the records carry distinct H-classes and that the cosets lifting
    the class of a record are exactly its orbit, so each plain multiplicity
    must equal the index of the one record with that class
    (InternalMismatch otherwise).  Indicator functions span, so this proves
    induce == induce_grouped for every class function at once.
    """
    G, H, lam = g_table_key[0], h_table_key[0], g_table_key[1]
    system = _coset_system(G, H)  # index cap before any class table
    g_table = class_table(G, lam)
    h_table = class_table(H, lam)
    plain = {}
    data = {}
    for alpha_key in g_table.classes:
        alpha = g_table.rep_images(alpha_key)
        fixed = system.fixed(alpha)
        counts = {}
        for token in fixed:
            h_key = h_table.key_of_images(_beta_images(system.rep_images(token), alpha))
            counts[h_key] = counts.get(h_key, 0) + 1
        datum = _build_datum(g_table, h_table, system, alpha_key, fixed)
        if counts != {rec.h_key: rec.index for rec in datum.records}:
            raise InternalMismatch(
                "coset multiplicities differ from the orbit indices for %s"
                % g_table.class_id(alpha_key)
            )
        plain[alpha_key] = tuple(counts.items())
        data[alpha_key] = datum
    return plain, data


def induction_tables(G: PermGroup, H: PermGroup, lam: Ambient):
    return _induction_data((G, lam), (H, lam))


def restrict(chi: GenClassFunction, H: PermGroup) -> GenClassFunction:
    """Pull back along the inclusion H <= G: value at [beta] is chi at the
    class of beta viewed in G."""
    G = chi.table.group
    if not H.is_subgroup_of(G):
        raise NotSubgroup("H is not a subgroup of G")
    h_table = class_table(H, chi.table.lam)
    values = {}
    for key in h_table.classes:
        beta = h_table.rep_images(key)
        values[key] = chi[chi.table.key_of_images(beta)]
    return GenClassFunction(h_table, values)


def _weighted_sums(chi: GenClassFunction, G: PermGroup, terms) -> GenClassFunction:
    """Value at [alpha]: the sum of m * chi(h_key) over the (h_key, m) pairs
    ``terms[alpha_key]``, summed as integer numerators over the common
    denominator D of chi's values, with one Fraction per class."""
    g_table = class_table(G, chi.table.lam)
    den = math.lcm(*(v.denominator for v in chi.values.values()))
    nums = {key: v.numerator * (den // v.denominator) for key, v in chi.values.items()}
    return GenClassFunction(g_table, {
        alpha_key: Fraction(sum(m * nums[h_key] for h_key, m in terms[alpha_key]), den)
        for alpha_key in g_table.classes
    })


def induce(chi: GenClassFunction, G: PermGroup) -> GenClassFunction:
    """Plain coset sum: value at [alpha] adds chi([g^{-1} alpha g]) over
    every alpha-stable coset gH, the cosets of one H-class at once."""
    plain, _ = induction_tables(G, chi.table.group, chi.table.lam)
    return _weighted_sums(chi, G, plain)


def induce_grouped(chi: GenClassFunction, G: PermGroup) -> GenClassFunction:
    """Orbit-grouped sum: value at [alpha] adds index * chi([g^{-1} alpha g])
    over centralizer orbits of alpha-stable cosets.  Must agree with
    ``induce`` pointwise."""
    _, data = induction_tables(G, chi.table.group, chi.table.lam)
    return _weighted_sums(chi, G, {
        alpha_key: [(rec.h_key, rec.index) for rec in datum.records]
        for alpha_key, datum in data.items()
    })


def transfer_datum(G: PermGroup, H: PermGroup, alpha, lam: Ambient = None) -> TransferDatum:
    """Orbit records for one class: representatives, conjugated classes,
    verified stabilizer orders, and indices."""
    if isinstance(alpha, HomClass):
        lam = alpha.lam
    elif lam is None:
        raise ValueError("lam is required when alpha is a permutation tuple")
    system = _coset_system(G, H)  # index cap before any class table
    g_table = class_table(G, lam)
    h_table = class_table(H, lam)
    if isinstance(alpha, HomClass) and isinstance(g_table, SymmetricClassTable):
        alpha_key = alpha
    else:
        perms = realize(alpha).perms if isinstance(alpha, HomClass) else alpha
        alpha_key = g_table.key_of_images(tuple(p.images for p in perms))
    fixed = system.fixed(g_table.rep_images(alpha_key))
    return _build_datum(g_table, h_table, system, alpha_key, fixed)


def ideal_trivial(G: PermGroup, H: PermGroup, alpha, t_is_zero: bool, lam: Ambient = None) -> bool:
    """Decide whether the transfer ideal attached to [alpha] is the whole
    ring; see ``TransferDatum.ideal_trivial``."""
    p = lam.p if lam is not None else alpha.lam.p
    return transfer_datum(G, H, alpha, lam).ideal_trivial(p, t_is_zero)


def verify_mainthm_instance(G: PermGroup, H: PermGroup, chi: GenClassFunction) -> bool:
    """Check the transfer formula instance: plain coset sums equal
    orbit-grouped stabilizer-indexed sums on every class."""
    if chi.table.group != H:
        raise ValueError("chi must be a class function on H")
    return induce(chi, G) == induce_grouped(chi, G)
