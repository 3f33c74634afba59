"""Generalized class functions and the transfer/induction formula.

A class function here assigns an exact rational to every conjugacy class of
actions of L = (Z/p^k)^h on the permuted points of a group.  Induction
along H <= G is computed two independent ways: as a plain sum over the
alpha-stable cosets, and as an orbit-grouped sum weighted by stabilizer
indices.  Their pointwise agreement is the combinatorial content of the
transfer formula, and the orbit data also drives the transfer-ideal
triviality decision.  The cosets and their centralizer orbits come from
``perm`` (``_coset_system`` and ``_stable_orbits``); this module adds the
H-class of each orbit and the proof of its stabilizer.  A Young subgroup
H = Sym(b)^c is never enumerated: its class table is read blockwise off one
table of Sym(b), its cosets are ordered block partitions whose
centralizer orbits are read off the orbit types of alpha (a transfer datum
lists no stable coset; only the plain induction table does, checks their
number against the datum's count and classifies each partition block by
block, by the factor keys of alpha on its blocks).  Each class table
answers one question, ``class_and_centralizer(beta)``: beta's class,
generators W of C(beta) and the order of their stabilizer chain.  The
symmetric table reads W off the orbits of beta, the product table off the
orbits of beta on each block, in one pass over the blocks, and the
exhaustive table from one scan of its group.  Each coset stabilizer is
proved from W: |W| generator checks, each asking the coset model whether
it fixes the coset, and two order comparisons (``_verify_stabilizer``).

The codomain of the underlying character theory is modelled by one rational
scalar per class; the transfer along an inclusion of centralizers acts as
multiplication by the index.  This is the exact shape of the classical
induced-character formula and is the maximal desk-scale shadow of the ring
statement; the genuine module structure is out of scope.  A class function
stores those scalars as one common denominator and a list of integer
numerators in the order of its table's ``classes``.  Each table maps a
class key to its position once (``position``); that map is read only
where a key comes in (``chi[key]``, ``indicator``, ``restrict``), and a
``Fraction`` is built only where a value leaves the object (``chi[key]``,
``values``, ``items``, ``to_json_dict``) or comes in as text, and
``fractions`` is imported only there, so a request that reads or prints
no value never loads it.  Induction sums along sparse rows of (H-class
position, coefficient), one row per G-class, built once per pair on the
first induction: the plain rows from the coset multiplicities, the
grouped rows from the orbit indices.  So induction, restriction, the inner
product and equality are list arithmetic on integers.  A value or an
induced sum too long to print (in lowest terms, more digits than the
interpreter's integer-string limit) is refused with ``ResourceLimit``,
naming its class, before it is stored.

Each transfer datum is proven once per process.  One store per pair
H <= G at one lam (``_induction_data``, holding the ``INDUCTION_PAIRS``
most recently used pairs) keeps the coset model, both class tables, each
datum proven so far and, once an induction asks, the plain table and the
rows.  ``transfer_datum`` and the induction tables read it; a datum is
proven in full, with every check, on the first request for its class.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from functools import cached_property, lru_cache
from operator import mul, sub

from . import homclass as hc_mod
from .abelian import Ambient
from .checks import Record, digit_limit
from .errors import (
    BadParameters,
    InternalMismatch,
    NotInGroup,
    NotSubgroup,
    ResourceLimit,
)
from .homclass import (
    HomClass,
    classify,
    enumerate_hom_classes,
    realize,
)
from .perm import (
    Perm,
    PermGroup,
    YoungSubgroup,
    _BlockCosets,
    _centralizer_generators,
    _centralizer_scan,
    _chain_generators,
    _commute_images,
    _commuting_tuples,
    _conj_images,
    _coset_system,
    _lift,
    _stable_orbits,
    symmetric_group,
)

GENERIC_TABLE_CAP = 10 ** 4
# the exponent of a decimal value string, as ``Fraction`` reads it
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


class _ClassTable:
    """What every class table shares: ``classes``, its keys in a fixed
    order, and the map from a key to its place in that order."""

    @cached_property
    def position(self):
        """Class key -> its index in ``classes``."""
        return {key: i for i, key in enumerate(self.classes)}


class SymmetricClassTable(_ClassTable):
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
        return classify(imgs, self.lam, self.degree)

    def rep_images(self, key: HomClass):
        reps = self._reps.get(key)
        if reps is None:
            reps = tuple(p.images for p in realize(key).perms)
            self._reps[key] = reps
        return reps

    def centralizer_order(self, key: HomClass) -> int:
        return hc_mod.centralizer_order(key)

    def class_and_centralizer(self, beta):
        """(class of the image tuple beta, W, |<W>|): W generators of its
        centralizer read off its orbits, kept where they enlarge their
        stabilizer chain, and the chain's order."""
        return (self.key_of_images(beta),) + _chain_generators(
            self.degree, _centralizer_generators(beta, self.degree)
        )

    def class_id(self, key: HomClass) -> str:
        return key.class_id()


class GenericClassTable(_ClassTable):
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

    def class_and_centralizer(self, beta):
        """(class of the image tuple beta, W, |<W>|): W the elements of one
        scan of the group for those commuting with beta that enlarge the
        chain of those kept before them, as ``perm.centralizer`` carries
        them, and the chain's order."""
        key = self.key_of_images(beta)
        scan = _centralizer_scan((g.images for g in self.group.iter_elements()), beta)
        return (key,) + _chain_generators(self.degree, scan, len(scan))

    def class_id(self, key) -> str:
        return ";".join(Perm(s).cycles() for s in key)


class ProductClassTable(GenericClassTable):
    """Hom classes into a Young subgroup Sym(b)^c, read blockwise off one
    exhaustive table of Sym(b).

    Conjugation acts blockwise, so the lex-minimal conjugate of a tuple is
    the join of its blockwise lex-minimal conjugates: keys, class order, ids
    and centralizer orders are exactly ``GenericClassTable``'s.  The factor
    table caps the order of Sym(b); the classes, one per c-tuple of factor
    classes, are capped by GENERIC_TABLE_CAP before any is built.  The
    order of H is not capped: nothing here lists H.
    """

    def __init__(self, group: YoungSubgroup, lam: Ambient):
        self.group, self.lam, self.degree = group, lam, group.degree
        self.factor = GenericClassTable(symmetric_group(group.block_size), lam)
        per_block = len(self.factor.classes)
        if per_block ** group.blocks > GENERIC_TABLE_CAP:
            raise ResourceLimit(
                "%d^%d classes exceed the product class-table cap %d"
                % (per_block, group.blocks, GENERIC_TABLE_CAP)
            )
        # block action -> (its factor key, its centralizer generators in
        # Sym(b), their chain order); the keys are entries of ``factor._lookup``
        self._block_entries = {}
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

    def _blocks(self, imgs):
        """(lo, the action of imgs on the block lo..lo+b-1 as a Sym(b) tuple)."""
        b = self.group.block_size
        for lo in range(0, self.degree, b):
            yield lo, tuple(tuple(map(lo.__rsub__, s[lo:lo + b])) for s in imgs)

    def key_of_images(self, imgs):
        if any(len(s) != self.degree for s in imgs):
            raise NotInGroup("tuple is not an action inside this group")
        # a block image outside the block is no Sym(b) tuple: NotInGroup
        return self._join([self.factor.key_of_images(local) for _, local in self._blocks(imgs)])

    def class_and_centralizer(self, beta):
        """(H-class, W, |<W>|) of beta in one pass over its blocks.  Each
        distinct block action gets, once, its factor key, the generators of
        its centralizer in Sym(b), read off its orbits and kept where they
        enlarge their stabilizer chain, and the chain's order.  The factor
        keys join into the H-class.  W embeds the generators at their
        blocks, and generators on disjoint blocks generate the direct
        product, so |<W>| is the product of the orders."""
        b, degree = self.group.block_size, self.degree
        ident = tuple(range(degree))
        parts, gens, order = [], [], 1
        for lo, local in self._blocks(beta):
            entry = self._block_entries.get(local)
            if entry is None:
                entry = (self.factor.key_of_images(local),) + _chain_generators(
                    b, _centralizer_generators(local, b)
                )
                self._block_entries[local] = entry
            part, local_gens, local_order = entry
            parts.append(part)
            gens.extend(ident[:lo] + tuple(lo + v for v in t) + ident[lo + b:] for t in local_gens)
            order *= local_order
        return self._join(parts), gens, order

    def partition_counts(self, alpha, partitions):
        """H-class -> how many of the ``partitions`` lift alpha into it, in
        the order of the first partition of each class.

        A partition is a block coset token: g sends base block j onto its
        block j, in sorted order, and each block is alpha-stable.  So
        beta = g^-1 alpha g acts on base block j as alpha acts on block j,
        relabelled in the block's sorted order, and beta's class is the
        join of the factor keys of those local actions.  The key of each
        distinct block is found once; each distinct tuple of keys is joined
        once."""
        keys = {}  # block -> the factor key of alpha there
        for blk in set(itertools.chain.from_iterable(partitions)):
            # a point sent out of the block gives no Sym(b) tuple: NotInGroup
            where = {x: i for i, x in enumerate(blk)}.get
            keys[blk] = self.factor.key_of_images(
                tuple(tuple(where(s[x]) for x in blk) for s in alpha)
            )
        key_of = keys.__getitem__
        counts = Counter(tuple(map(key_of, partition)) for partition in partitions)
        return {self._join(parts): m for parts, m in counts.items()}


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


def _fraction(value) -> Fraction:
    """``value`` as a Fraction.  A decimal string whose exponent is above
    the interpreter's integer-string limit is refused before parsing:
    ``Fraction`` would build 10**exponent, which takes minutes, and the
    value could not be printed back."""
    from fractions import Fraction
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        found = _EXPONENT.search(value)
        if found:
            digits = found.group(1).replace("_", "").lstrip("0")
            limit = digit_limit()
            if len(digits) > len(str(limit)) or int(digits or 0) > limit:
                raise ResourceLimit(
                    "decimal exponent in %.40r is above the %d-digit integer limit"
                    % (value, limit)
                )
    return Fraction(value)


def _check_digits(table, nums, den):
    """Refuse a class function with a value that could not be printed: in
    lowest terms, a numerator or denominator with more decimal digits than
    the integer-string limit.  ``nums`` are the numerators in the order of
    ``table.classes``; the message names the first such class."""
    limit = digit_limit()
    bits = 3 * limit  # 2**(3*limit) < 10**limit: shorter ints always print
    if den.bit_length() <= bits and max(map(int.bit_length, nums), default=0) <= bits:
        return
    for key, num in zip(table.classes, nums):
        g = math.gcd(num, den)
        for part, n in (("numerator", num // g), ("denominator", den // g)):
            if n.bit_length() > bits and abs(n) >= 10 ** limit:
                raise ResourceLimit(
                    "the value at class %s has a %s of more than %d digits"
                    % (table.class_id(key), part, limit)
                )


class GenClassFunction:
    """A total function from the hom classes of a group to exact rationals,
    stored as one positive common denominator ``den`` and a list ``nums``
    of integer numerators, one per class in the order of
    ``table.classes``."""

    __slots__ = ("table", "den", "nums")

    def __init__(self, table, values):
        vals = []
        for key in table.classes:
            if key not in values:
                raise ValueError("missing value for class %s" % table.class_id(key))
            vals.append(_fraction(values[key]))
        if len(values) != len(table.classes):
            raise ValueError("values contain keys outside the class table")
        den = math.lcm(*(v.denominator for v in vals))
        nums = [v.numerator * (den // v.denominator) for v in vals]
        _check_digits(table, nums, den)
        self.table = table
        self.den = den
        self.nums = nums

    @classmethod
    def _over(cls, table, nums, den) -> "GenClassFunction":
        """Trusted constructor: ``nums`` is a list of ints, one per class in
        the order of ``table.classes``, and ``den`` is a positive int."""
        chi = object.__new__(cls)
        chi.table, chi.nums, chi.den = table, nums, den
        return chi

    @classmethod
    def constant(cls, table, value) -> "GenClassFunction":
        return cls(table, {key: value for key in table.classes})

    @classmethod
    def indicator(cls, table, key) -> "GenClassFunction":
        """1 at the class ``key`` and 0 elsewhere; KeyError for a key
        outside the table."""
        nums = [0] * len(table.classes)
        nums[table.position[key]] = 1
        return cls._over(table, nums, 1)

    @classmethod
    def random(cls, table, rng) -> "GenClassFunction":
        """Per class, a numerator in [-20, 20] and then a denominator in
        [1, 12]: the draws of ``Fraction(rng.randint(-20, 20),
        rng.randint(1, 12))`` for a ``random.Random`` rng.  Its
        ``randrange(n)`` takes ``getrandbits(n.bit_length())`` until the
        bits read below n; the draws here do the same with 6 bits below 41
        and 4 bits below 12, so they take the same random bits."""
        bits = rng.getrandbits
        draws = []
        for _ in table.classes:
            n = bits(6)
            while n > 40:
                n = bits(6)
            d = bits(4)
            while d > 11:
                d = bits(4)
            draws.append((n - 20, d + 1))
        den = math.lcm(*(d for _, d in draws))
        return cls._over(table, [n * (den // d) for n, d in draws], den)

    def __getitem__(self, key) -> Fraction:
        from fractions import Fraction
        return Fraction(self.nums[self.table.position[key]], self.den)

    @property
    def values(self):
        """Class key -> Fraction, in class-table order."""
        return dict(self.items())

    def __eq__(self, other):
        if not isinstance(other, GenClassFunction) or self.table is not other.table:
            return False
        if self.den == other.den:
            return self.nums == other.nums
        den, other_den = self.den, other.den
        return all(n * other_den == m * den for n, m in zip(self.nums, other.nums))

    def items(self):
        from fractions import Fraction
        den = self.den
        return [(key, Fraction(n, den)) for key, n in zip(self.table.classes, self.nums)]

    def to_json_dict(self):
        return {self.table.class_id(key): str(value) for key, value in self.items()}

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
                values[by_id[cid]] = _fraction(text)
            except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
                # OverflowError: a JSON Infinity or 1e400 loads as a float inf
                raise ValueError("bad value %r for class %s" % (text, cid)) from exc
        return cls(table, values)

    def __repr__(self):
        return "GenClassFunction(%s)" % self.to_json_dict()


def inner_product(a: GenClassFunction, b: GenClassFunction) -> Fraction:
    """Sum over classes of a*b / centralizer order; reciprocity holds exactly
    for this normalization.  The terms are summed as integers over
    a.den * b.den * L, L the lcm of the centralizer orders."""
    from fractions import Fraction
    if a.table is not b.table:
        raise ValueError("class functions live on different tables")
    orders = [a.table.centralizer_order(key) for key in a.table.classes]
    lcm = math.lcm(*orders)
    total = sum(x * y * (lcm // order) for x, y, order in zip(a.nums, b.nums, orders))
    return Fraction(total, a.den * b.den * lcm)


# ---------------------------------------------------------------------------
# transfer data


class OrbitRecord(Record):
    """One centralizer orbit of alpha-stable cosets."""

    # index: [C_G(im alpha) : stabilizer] = orbit size
    __slots__ = _fields = ("coset_rep", "h_key", "stabilizer_order", "index")

    def __init__(self, coset_rep: Perm, h_key, stabilizer_order: int, index: int):
        self._set_fields(coset_rep, h_key, stabilizer_order, index)


class TransferDatum(Record):
    __slots__ = _fields = ("alpha_key", "fixed_count", "centralizer_order", "records")

    def __init__(self, alpha_key, fixed_count: int, centralizer_order: int, records: tuple):
        self._set_fields(alpha_key, fixed_count, centralizer_order, records)

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


def _build_datum(g_table, h_table, system, alpha_key) -> TransferDatum:
    """Orbit records for one class: the orbits of ``perm._stable_orbits``
    on the alpha-stable cosets, each with its H-class and a verified
    stabilizer."""
    alpha = g_table.rep_images(alpha_key)
    cent_order = g_table.centralizer_order(alpha_key)
    records = []
    orbits, fixed_count = _stable_orbits(system, alpha, cent_order)
    for token, size, stab_order, g, beta in orbits:
        h_key, gens, gens_order = h_table.class_and_centralizer(beta)
        _verify_stabilizer(
            system, token, g, alpha, gens, gens_order, stab_order,
            h_table.centralizer_order(h_key),
        )
        records.append(OrbitRecord(
            coset_rep=Perm(g), h_key=h_key, stabilizer_order=stab_order, index=size,
        ))
    return TransferDatum(
        alpha_key=alpha_key,
        fixed_count=fixed_count,
        centralizer_order=cent_order,
        records=tuple(records),
    )


def _verify_stabilizer(system, token, g, alpha, gens, gens_order, stab_order, table_order):
    """Check that the stabilizer of the coset in C_G(alpha) is
    g * C_H(beta) * g^{-1}, from generators.

    ``gens`` are the image tuples W that the H class table gives for
    C_H(beta), beta = g^{-1} alpha g, and ``gens_order`` is |<W>| from their
    ``perm.StabilizerChain``.  Every generator, conjugated by g, is checked
    to commute with alpha and to fix the coset (the coset model's
    ``fixes``); the stabilizer is a
    subgroup, so it contains g <W> g^{-1}.  Then |<W>| is checked to be
    ``stab_order`` (orbit-stabilizer), so containment plus count gives
    equality, with |W| generator checks.  It is also checked to be
    ``table_order``, the class table's |C_H(beta)|, found without W (from a
    conjugation orbit, or from the orbit types in Sym(p^k)): a generator
    that fixes the coset gH once conjugated by g lies in H, and one that
    commutes with alpha once conjugated commutes with beta, so <W> lies in
    C_H(beta) and, with that order, is all of it.  The proof does not
    depend on how W was found, nor on how the orbits were found.
    """
    for c in gens:
        conj = _conj_images(g, c)
        if not all(_commute_images(conj, s) for s in alpha):
            raise InternalMismatch("claimed stabilizer element is not in the centralizer")
        if not system.fixes(conj, token):
            raise InternalMismatch("claimed stabilizer element moves the coset")
    if gens_order != stab_order:
        raise InternalMismatch(
            "conjugated subgroup centralizer has order %d, stabilizer has order %d"
            % (gens_order, stab_order)
        )
    if gens_order != table_order:
        raise InternalMismatch(
            "centralizer generators have order %d, the class table gives %d"
            % (gens_order, table_order)
        )


class _Rows:
    """Sparse rows, one per G-class, from per-row lists of (position,
    coefficient) pairs: row i pairs the H-class positions
    ``positions[starts[i]:ends[i]]`` (in the order of the H table's
    ``classes``) with the coefficients ``coeffs[starts[i]:ends[i]]``."""

    __slots__ = ("positions", "coeffs", "starts", "ends")

    def __init__(self, rows):
        ends = tuple(itertools.accumulate(map(len, rows)))
        pairs = itertools.chain.from_iterable(rows)
        self.positions, self.coeffs = tuple(zip(*pairs)) or ((), ())
        self.starts, self.ends = (0,) + ends[:-1], ends


class _Tables:
    """The plain table and the rows of one pair H <= G at one lam."""

    __slots__ = ("plain", "data", "plain_rows", "grouped_rows")

    def __init__(self, plain: dict, data: dict, plain_rows: _Rows, grouped_rows: _Rows):
        self.plain = plain  # G-class -> ((H-class, multiplicity), ...)
        self.data = data  # G-class -> TransferDatum, in class-table order
        self.plain_rows = plain_rows  # the pairs of ``plain``
        self.grouped_rows = grouped_rows  # (H-class, index) of each orbit record


# the pairs whose data one process keeps; one ``reproduce`` touches 15
INDUCTION_PAIRS = 32


class _Induction:
    """The one place where the transfer data of a pair H <= G at one lam
    are proven and kept: its coset model, both class tables, each datum
    proven so far, and the plain table once something sums along it."""

    def __init__(self, G: PermGroup, H: PermGroup, lam: Ambient):
        self.system = _coset_system(G, H)  # index cap before any class table
        self.g_table = class_table(G, lam)
        self.h_table = class_table(H, lam)
        self._data = {}  # G-class -> TransferDatum

    def datum(self, alpha_key) -> TransferDatum:
        """The datum of the G-class ``alpha_key``: proven in full by
        ``_build_datum`` on its first request, then kept."""
        datum = self._data.get(alpha_key)
        if datum is None:
            datum = _build_datum(self.g_table, self.h_table, self.system, alpha_key)
            self._data[alpha_key] = datum
        return datum

    @cached_property
    def tables(self) -> _Tables:
        """Per G-class, the plain table, the datum and the two rows that
        ``induce`` and ``induce_grouped`` sum along.

        The plain table lists every alpha-stable coset gH (``fixed``),
        classifies each on its own, by the H-class of g^{-1} alpha g, and
        keeps (H-class, multiplicity) pairs.  A block partition is
        classified block by block, by the product table
        (``ProductClassTable.partition_counts``); any other coset is lifted
        to g^{-1} alpha g and keyed whole.  The data come from ``datum``,
        whose ``_build_datum`` does not list the cosets of a Young subgroup;
        their count must be the length of the list.  The orbit/lift
        bijection says the records carry distinct H-classes and that the
        cosets lifting the class of a record are exactly its orbit, so each
        plain multiplicity must equal the index of the one record with that
        class (InternalMismatch otherwise).  Indicator functions span, so
        this proves induce == induce_grouped for every class function at
        once.
        """
        system, g_table, h_table = self.system, self.g_table, self.h_table
        position = h_table.position
        blockwise = isinstance(system, _BlockCosets) and isinstance(h_table, ProductClassTable)
        plain, data, plain_rows, grouped_rows = {}, {}, [], []
        for alpha_key in g_table.classes:
            alpha = g_table.rep_images(alpha_key)
            fixed = system.fixed(alpha)
            if blockwise:
                counts = h_table.partition_counts(alpha, fixed)
            else:
                counts = Counter(h_table.key_of_images(_lift(system, token, alpha)[1]) for token in fixed)
            datum = self.datum(alpha_key)
            if len(fixed) != datum.fixed_count:
                raise InternalMismatch(
                    "%d stable cosets listed, %d counted for %s"
                    % (len(fixed), datum.fixed_count, g_table.class_id(alpha_key))
                )
            if counts != {rec.h_key: rec.index for rec in datum.records}:
                raise InternalMismatch(
                    "coset multiplicities differ from the orbit indices for %s"
                    % g_table.class_id(alpha_key)
                )
            plain[alpha_key] = tuple(counts.items())
            data[alpha_key] = datum
            plain_rows.append([(position[h_key], m) for h_key, m in counts.items()])
            grouped_rows.append([(position[rec.h_key], rec.index) for rec in datum.records])
        self._data = data  # holds every class: the store keeps one dict
        return _Tables(plain, data, _Rows(plain_rows), _Rows(grouped_rows))


@lru_cache(maxsize=INDUCTION_PAIRS)
def _induction_data(g_table_key, h_table_key) -> _Induction:
    """The ``_Induction`` of H <= G at lam, for the keys (G, lam) and
    (H, lam)."""
    return _Induction(g_table_key[0], h_table_key[0], g_table_key[1])


def induction_tables(G: PermGroup, H: PermGroup, lam: Ambient):
    """(plain, data): per G-class, the (H-class, multiplicity) pairs of the
    plain coset sum and the ``TransferDatum``."""
    tables = _induction_data((G, lam), (H, lam)).tables
    return tables.plain, tables.data


def restrict(chi: GenClassFunction, H: PermGroup) -> GenClassFunction:
    """Pull back along the inclusion H <= G: value at [beta] is chi at the
    class of beta viewed in G."""
    G = chi.table.group
    if not H.is_subgroup_of(G):
        raise NotSubgroup("H is not a subgroup of G")
    h_table = class_table(H, chi.table.lam)
    nums, position, key_of_images = chi.nums, chi.table.position, chi.table.key_of_images
    return GenClassFunction._over(h_table, [
        nums[position[key_of_images(h_table.rep_images(key))]] for key in h_table.classes
    ], chi.den)


def _row_sums(chi: GenClassFunction, g_table, rows: _Rows) -> GenClassFunction:
    """Value at the i-th G-class: the sum of coefficient * chi over row i,
    summed as integer numerators over chi's denominator; no Fraction is
    built.  Each row sum is the difference of two prefix sums of the
    products.  Sums too long to print are refused."""
    prefix = list(itertools.accumulate(
        map(mul, rows.coeffs, map(chi.nums.__getitem__, rows.positions)), initial=0
    ))
    at = prefix.__getitem__
    sums = list(map(sub, map(at, rows.ends), map(at, rows.starts)))
    _check_digits(g_table, sums, chi.den)
    return GenClassFunction._over(g_table, sums, chi.den)


def induce(chi: GenClassFunction, G: PermGroup) -> GenClassFunction:
    """Plain coset sum: value at [alpha] adds chi([g^{-1} alpha g]) over
    every alpha-stable coset gH, the cosets of one H-class at once."""
    table = chi.table
    ind = _induction_data((G, table.lam), (table.group, table.lam))
    return _row_sums(chi, ind.g_table, ind.tables.plain_rows)


def induce_grouped(chi: GenClassFunction, G: PermGroup) -> GenClassFunction:
    """Orbit-grouped sum: value at [alpha] adds index * chi([g^{-1} alpha g])
    over centralizer orbits of alpha-stable cosets.  Must agree with
    ``induce`` pointwise."""
    table = chi.table
    ind = _induction_data((G, table.lam), (table.group, table.lam))
    return _row_sums(chi, ind.g_table, ind.tables.grouped_rows)


def transfer_datum(G: PermGroup, H: PermGroup, alpha, lam: Ambient = None) -> TransferDatum:
    """Orbit records for one class: representatives, conjugated classes,
    verified stabilizer orders, and indices.  A HomClass alpha carries its
    lam; a ``lam`` given with it must be that one (BadParameters)."""
    if isinstance(alpha, HomClass):
        if lam is not None and lam != alpha.lam:
            raise BadParameters("lam %r differs from the lam %r of the class %s" % (
                lam, alpha.lam, alpha.class_id()
            ))
        lam = alpha.lam
    elif lam is None:
        raise ValueError("lam is required when alpha is a permutation tuple")
    ind = _induction_data((G, lam), (H, lam))
    g_table = ind.g_table
    if isinstance(alpha, HomClass) and isinstance(g_table, SymmetricClassTable):
        alpha_key = alpha
    else:
        perms = realize(alpha).perms if isinstance(alpha, HomClass) else alpha
        alpha_key = g_table.key_of_images(tuple(p.images for p in perms))
    return ind.datum(alpha_key)


def ideal_trivial(G: PermGroup, H: PermGroup, alpha, t_is_zero: bool, lam: Ambient = None) -> bool:
    """Decide whether the transfer ideal attached to [alpha] is the whole
    ring; see ``TransferDatum.ideal_trivial``.  p is read only once
    ``transfer_datum`` has checked alpha and lam."""
    datum = transfer_datum(G, H, alpha, lam)
    p = lam.p if lam is not None else alpha.lam.p
    return datum.ideal_trivial(p, t_is_zero)


def verify_mainthm_instance(G: PermGroup, H: PermGroup, chi: GenClassFunction) -> bool:
    """Check the transfer formula instance: plain coset sums equal
    orbit-grouped stabilizer-indexed sums on every class."""
    if chi.table.group != H:
        raise ValueError("chi must be a class function on H")
    return induce(chi, G) == induce_grouped(chi, G)
