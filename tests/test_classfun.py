import dataclasses
import functools
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transchrome.classfun import (
    GenClassFunction,
    class_table,
    ideal_trivial,
    induce,
    induce_grouped,
    inner_product,
    restrict,
    transfer_datum,
    verify_mainthm_instance,
)
from transchrome.errors import InternalMismatch, NotInGroup, NotSubgroup, ResourceLimit
from transchrome.homclass import classify, lam_group, make_tuple
from transchrome.perm import (
    Perm,
    block_subgroup,
    centralizer,
    coset_orbits,
    fixed_cosets,
    generate,
    symmetric_group,
)


def P(text, degree):
    return Perm.from_cycles(text, degree)


def sym_class(cycles, p, h, k):
    lam = lam_group(p, h, k)
    perms = [P(c, p ** k) for c in cycles]
    return classify(make_tuple(perms, lam), lam)


@pytest.fixture(scope="module")
def s4_setup():
    S4 = symmetric_group(4)
    H = block_subgroup(2, 2)
    lam = lam_group(2, 1, 2)
    return S4, H, lam


def test_restrict_constant_and_identity(s4_setup):
    S4, H, lam = s4_setup
    gt = class_table(S4, lam)
    chi = GenClassFunction.constant(gt, Fraction(3, 7))
    res = restrict(chi, H)
    assert all(v == Fraction(3, 7) for _, v in res.items())
    # restricting along H = G is the identity
    again = restrict(chi, S4)
    assert again == chi


def test_restrict_indicator_to_cyclic(s4_setup):
    S4, _, lam = s4_setup
    Z4 = generate(4, [P("(0 1 2 3)", 4)])
    gt = class_table(S4, lam)
    four = sym_class(["(0 1 2 3)"], 2, 1, 2)
    res = restrict(GenClassFunction.indicator(gt, four), Z4)
    ht = res.table
    nonzero = {ht.class_id(key) for key, v in res.items() if v}
    assert nonzero == {"(0 1 2 3)", "(0 3 2 1)"}


def test_restrict_requires_subgroup(s4_setup):
    S4, H, lam = s4_setup
    A4ish = generate(4, [P("(0 1 2)", 4)])
    chi = GenClassFunction.constant(class_table(A4ish, lam_group(2, 1, 2)), 1)
    with pytest.raises(NotSubgroup):
        restrict(chi, S4)


def test_induce_constant_values(s4_setup):
    S4, H, lam = s4_setup
    ht = class_table(H, lam)
    gt = class_table(S4, lam)
    ind = induce(GenClassFunction.constant(ht, 1), S4)
    values = {gt.class_id(k): v for k, v in ind.items()}
    assert values["p2.k2.h1:[(U<1>:idx1,m4)]"] == 6
    assert values["p2.k2.h1:[(U<1>:idx1,m2),(U<2>:idx2,m1)]"] == 2
    assert values["p2.k2.h1:[(U<2>:idx2,m2)]"] == 2
    assert values["p2.k2.h1:[(U<0>:idx4,m1)]"] == 0


def test_induce_zero_is_zero(s4_setup):
    S4, H, lam = s4_setup
    ht = class_table(H, lam)
    ind = induce(GenClassFunction.constant(ht, 0), S4)
    assert all(v == 0 for _, v in ind.items())


def test_induce_from_alternating_group():
    S3 = symmetric_group(3)
    A3 = generate(3, [P("(0 1 2)", 3)])
    lam = lam_group(3, 1, 1)
    ht = class_table(A3, lam)
    ind = induce(GenClassFunction.constant(ht, 1), S3)
    three_cycle = sym_class(["(0 1 2)"], 3, 1, 1)
    assert ind[three_cycle] == 2
    assert verify_mainthm_instance(S3, A3, GenClassFunction.constant(ht, 1))


def test_induce_from_trivial_subgroup_kills_p_cycle():
    Sp = symmetric_group(3)
    E = generate(3, [])
    lam = lam_group(3, 1, 1)
    ht = class_table(E, lam)
    ind = induce(GenClassFunction.constant(ht, 1), Sp)
    assert ind[sym_class(["(0 1 2)"], 3, 1, 1)] == 0
    assert ind[sym_class(["e"], 3, 1, 1)] == 6


def test_induce_grouped_examples(s4_setup):
    S4, H, lam = s4_setup
    ht = class_table(H, lam)
    grouped = induce_grouped(GenClassFunction.constant(ht, 1), S4)
    assert grouped[sym_class(["(0 1)(2 3)"], 2, 1, 2)] == 2
    assert grouped[sym_class(["(0 1 2 3)"], 2, 1, 2)] == 0
    # inducing along H = G is the identity on constants
    gt = class_table(S4, lam)
    same = induce_grouped(GenClassFunction.constant(gt, 1), S4)
    assert all(v == 1 for _, v in same.items())


@pytest.mark.parametrize("h", [1, 2])
def test_plain_and_grouped_induction_agree(s4_setup, h):
    S4, H, _ = s4_setup
    lam = lam_group(2, h, 2)
    ht = class_table(H, lam)
    rng = random.Random(42 + h)
    for _ in range(10):
        chi = GenClassFunction.random(ht, rng)
        assert verify_mainthm_instance(S4, H, chi)


def test_mainthm_trivial_when_subgroup_is_whole_group(s4_setup):
    S4, _, lam = s4_setup
    rng = random.Random(3)
    chi = GenClassFunction.random(class_table(S4, lam), rng)
    assert verify_mainthm_instance(S4, S4, chi)
    assert induce(chi, S4) == chi


def test_mainthm_on_cyclic_subgroup(s4_setup):
    S4, _, lam = s4_setup
    Z4 = generate(4, [P("(0 1 2 3)", 4)])
    rng = random.Random(7)
    for _ in range(10):
        chi = GenClassFunction.random(class_table(Z4, lam), rng)
        assert verify_mainthm_instance(S4, Z4, chi)


def test_frobenius_reciprocity_exact():
    rng = random.Random(2024)
    cases = [
        (symmetric_group(4), block_subgroup(2, 2), lam_group(2, 1, 2)),
        (symmetric_group(4), generate(4, [P("(0 1 2 3)", 4)]), lam_group(2, 2, 2)),
        (symmetric_group(3), generate(3, [P("(0 1 2)", 3)]), lam_group(3, 1, 1)),
        (symmetric_group(8), block_subgroup(4, 2), lam_group(2, 1, 3)),
    ]
    for G, H, lam in cases:
        gt, ht = class_table(G, lam), class_table(H, lam)
        for _ in range(5):
            chi = GenClassFunction.random(ht, rng)
            phi = GenClassFunction.random(gt, rng)
            assert inner_product(induce(chi, G), phi) == inner_product(chi, restrict(phi, H))


def test_induction_is_transitive():
    # K = Klein block group inside the dihedral centralizer inside Sym(4)
    S4 = symmetric_group(4)
    D8 = centralizer(S4, [P("(0 1)(2 3)", 4)])
    K = block_subgroup(2, 2)
    assert K.is_subgroup_of(D8)
    lam = lam_group(2, 1, 2)
    rng = random.Random(11)
    kt = class_table(K, lam)
    for _ in range(5):
        chi = GenClassFunction.random(kt, rng)
        via_mid = induce(induce(chi, D8), S4)
        direct = induce(chi, S4)
        assert via_mid == direct


def test_induce_matches_raw_double_sum():
    # third route, independent of any coset machinery: average the values
    # of conjugated tuples over all group elements landing in H
    cases = [
        (symmetric_group(4), block_subgroup(2, 2), 2, 2),
        (symmetric_group(4), generate(4, [P("(0 1 2 3)", 4)]), 2, 2),
        (symmetric_group(3), generate(3, [P("(0 1 2)", 3)]), 3, 1),
    ]
    rng = random.Random(99)
    for G, H, p, k in cases:
        for h in (1, 2):
            lam = lam_group(p, h, k)
            gt, ht = class_table(G, lam), class_table(H, lam)
            chi = GenClassFunction.random(ht, rng)
            ind = induce(chi, G)
            for alpha in gt.classes:
                alpha_perms = [Perm(t) for t in gt.rep_images(alpha)]
                total = Fraction(0)
                for g in G:
                    conj = tuple(
                        (g.inverse() * s * g).images for s in alpha_perms
                    )
                    if all(Perm(c) in H for c in conj):
                        total += chi[ht.key_of_images(conj)]
                assert ind[alpha] == total / H.order


def test_transfer_datum_examples(s4_setup):
    S4, H, lam = s4_setup
    d = transfer_datum(S4, H, sym_class(["(0 1)"], 2, 1, 2))
    assert len(d.records) == 2
    assert all(rec.index == 1 for rec in d.records)
    assert all(rec.stabilizer_order == 4 for rec in d.records)

    d = transfer_datum(S4, H, sym_class(["(0 1)(2 3)"], 2, 1, 2))
    assert len(d.records) == 1
    assert d.records[0].index == 2
    assert d.records[0].stabilizer_order == 4

    d = transfer_datum(S4, H, sym_class(["(0 1 2 3)"], 2, 1, 2))
    assert d.is_empty()
    assert d.fixed_count == 0


def test_transfer_datum_index_sums(s4_setup):
    S4, H, lam = s4_setup
    gt = class_table(S4, lam)
    for key in gt.classes:
        d = transfer_datum(S4, H, key)
        assert sum(rec.index for rec in d.records) == d.fixed_count


def test_transfer_stabilizer_identity_independent(s4_setup):
    # re-derive the stabilizer through the generic coset machinery and
    # compare with the conjugated centralizer inside H, element by element
    S4, H, lam = s4_setup
    for cycles in (["(0 1)"], ["(0 1)(2 3)"]):
        alpha = [P(c, 4) for c in cycles]
        C = centralizer(S4, alpha)
        fixed = fixed_cosets(S4, H, alpha)
        for coset, stab in coset_orbits(C, fixed):
            g = coset.rep
            beta = [g.inverse() * s * g for s in alpha]
            claimed = {
                (g * c * g.inverse()).images for c in centralizer(H, beta)
            }
            assert claimed == {s.images for s in stab.elements}


def test_centralizer_leaving_fixed_cosets_is_a_mismatch(s4_setup):
    # a fixed-coset list the centralizer does not preserve is a bug, not bad
    # input: it surfaces as InternalMismatch (exit 4), not as a domain error
    from transchrome.classfun import _build_datum, _coset_system

    S4, H, lam = s4_setup
    g_table = class_table(S4, lam)
    h_table = class_table(H, lam)
    system = _coset_system(S4, H)
    key = sym_class(["(0 1)(2 3)"], 2, 1, 2)
    fixed = system.fixed(g_table.rep_images(key))
    assert len(fixed) == 2
    with pytest.raises(InternalMismatch):
        _build_datum(g_table, h_table, system, key, fixed[:1])


def test_ideal_trivial_rules(s4_setup):
    S4, H, lam = s4_setup
    assert ideal_trivial(S4, H, sym_class(["(0 1)"], 2, 1, 2), False)
    assert not ideal_trivial(S4, H, sym_class(["(0 1)(2 3)"], 2, 1, 2), False)
    assert not ideal_trivial(S4, H, sym_class(["e"], 2, 1, 2), False)
    # p inverted: any stable coset makes the ideal trivial
    assert ideal_trivial(S4, H, sym_class(["e"], 2, 1, 2), True)
    assert not ideal_trivial(S4, H, sym_class(["(0 1 2 3)"], 2, 1, 2), True)


def test_nontrivial_ideal_means_every_index_divisible():
    from transchrome.perm import block_subgroup
    from transchrome.homclass import enumerate_hom_classes

    for p, k in [(2, 2), (2, 3), (3, 2)]:
        G = symmetric_group(p ** k)
        H = block_subgroup(p ** (k - 1), p)
        for hc in enumerate_hom_classes(p, 1, k):
            datum = transfer_datum(G, H, hc)
            if not ideal_trivial(G, H, hc, False):
                assert all(rec.index % p == 0 for rec in datum.records)


def test_block_and_generic_coset_systems_agree(s4_setup):
    # same group given two ways: the partition model and the generic coset
    # table must list the same alpha-stable cosets, in the same order, for
    # every class, the identity (every coset stable) included
    from transchrome.classfun import _BlockCosets, _GenericCosets

    S4 = s4_setup[0]
    identity = (tuple(range(4)),)
    for block, index in ((2, 6), (1, 24)):
        blocks = _BlockCosets(4, block)
        generic = _GenericCosets(S4, block_subgroup(block, 4 // block))
        assert len(blocks.fixed(identity)) == index
        for h in (1, 2):
            gt = class_table(S4, lam_group(2, h, 2))
            for alpha in [identity * h] + [gt.rep_images(key) for key in gt.classes]:
                fixed_b = [blocks.rep_images(t) for t in blocks.fixed(alpha)]
                fixed_g = [generic.rep_images(t) for t in generic.fixed(alpha)]
                assert fixed_b == fixed_g


def test_class_function_json_round_trip(s4_setup):
    S4, H, lam = s4_setup
    ht = class_table(H, lam)
    chi = GenClassFunction.random(ht, random.Random(5))
    data = json.loads(json.dumps(chi.to_json_dict()))
    assert GenClassFunction.from_json_dict(ht, data) == chi


def test_class_function_requires_total_definition(s4_setup):
    S4, H, lam = s4_setup
    ht = class_table(H, lam)
    partial = {ht.classes[0]: Fraction(1)}
    with pytest.raises(ValueError):
        GenClassFunction(ht, partial)


def test_induce_caps_index():
    # index cap guards runaway coset enumerations
    S5 = symmetric_group(5)
    E = generate(5, [])
    lam = lam_group(5, 1, 1)
    chi = GenClassFunction.constant(class_table(E, lam), 1)
    ind = induce(chi, S5)  # index 120 is fine
    assert ind[sym_class(["e"], 5, 1, 1)] == 120


def test_generic_table_cap():
    from transchrome.classfun import GenericClassTable

    with pytest.raises(ResourceLimit):
        GenericClassTable(symmetric_group(8), lam_group(2, 1, 3))


@pytest.mark.parametrize("block,blocks,p,h,k", [
    (2, 2, 2, 1, 2), (2, 2, 2, 2, 2), (2, 2, 2, 3, 2),
    (4, 2, 2, 1, 3), (4, 2, 2, 2, 3),
    (3, 3, 3, 1, 2), (3, 3, 3, 2, 2),
    (1, 4, 2, 2, 2), (1, 3, 3, 1, 1),
])
def test_product_table_matches_generic_table(block, blocks, p, h, k):
    # the Young subgroup's table read blockwise must be the exhaustive one
    from transchrome.classfun import GenericClassTable, ProductClassTable

    H = block_subgroup(block, blocks)
    lam = lam_group(p, h, k)
    product = ProductClassTable(H, lam)
    generic = GenericClassTable(H, lam)
    # uncached: the cache may hold an equal group given by generators
    assert isinstance(class_table.__wrapped__(H, lam), ProductClassTable)
    assert product.classes == generic.classes
    for key in generic.classes:
        assert product.class_id(key) == generic.class_id(key)
        assert product.centralizer_order(key) == generic.centralizer_order(key)
    for imgs, key in generic._lookup.items():
        assert product.key_of_images(imgs) == key
    # swapping the first and the last point leaves every block
    swap = list(range(H.degree))
    swap[0], swap[-1] = swap[-1], swap[0]
    with pytest.raises(NotInGroup):
        product.key_of_images((tuple(swap),) * h)


# -- the stabilizer check, factor by factor --


def _mutated_transfer(monkeypatch, h, cycles, mutate):
    """transfer_datum over S8 > S4xS4 for one class, with the centralizer
    factors handed to the stabilizer check passed through ``mutate``."""
    from transchrome import classfun

    real = classfun.centralizer_factors
    monkeypatch.setattr(
        classfun, "centralizer_factors", lambda H, perms: mutate(real(H, perms), H)
    )
    return transfer_datum(
        symmetric_group(8), block_subgroup(4, 2), sym_class(cycles, 2, h, 3)
    )


def test_stabilizer_check_catches_a_dropped_factor_element(monkeypatch):
    def drop(factors, H):
        factors[0].pop()
        return factors

    with pytest.raises(InternalMismatch, match="has order"):
        _mutated_transfer(monkeypatch, 1, ["(0 1)"], drop)


def test_stabilizer_check_catches_an_element_moving_the_coset(monkeypatch):
    # at alpha = e every element commutes with alpha; swapping the two
    # blocks does not fix the coset
    swap = tuple(range(4, 8)) + tuple(range(4))

    def replace(factors, H):
        factors[0][-1] = swap
        return factors

    with pytest.raises(InternalMismatch, match="moves the coset"):
        _mutated_transfer(monkeypatch, 1, ["e"], replace)


def test_stabilizer_check_catches_an_element_outside_the_centralizer(monkeypatch):
    def replace(factors, H):
        # at alpha = (0 1) one factor is a proper subgroup of Sym(4): put in
        # an element of that block that is not in it
        for lo, factor in zip((0, 4), factors):
            for t in itertools.permutations(range(lo, lo + 4)):
                image = tuple(range(lo)) + t + tuple(range(lo + 4, 8))
                if image not in factor:
                    factor[-1] = image
                    return factors
        raise AssertionError("every factor is all of Sym(4)")

    with pytest.raises(InternalMismatch, match="not in the centralizer"):
        _mutated_transfer(monkeypatch, 1, ["(0 1)"], replace)


def test_stabilizer_check_catches_a_wrong_order(monkeypatch):
    from transchrome import classfun

    calls = []
    real = classfun._verify_stabilizer
    monkeypatch.setattr(classfun, "_verify_stabilizer", lambda *args: calls.append(args))
    transfer_datum(symmetric_group(8), block_subgroup(4, 2), sym_class(["(0 1)"], 2, 1, 3))
    assert calls
    for args in calls:
        real(*args)
        stab_order, table_order = args[-2:]
        assert stab_order == table_order
        with pytest.raises(InternalMismatch, match="stabilizer has order"):
            real(*args[:-2], 2 * stab_order, table_order)
        with pytest.raises(InternalMismatch, match="class table gives"):
            real(*args[:-2], stab_order, 2 * table_order)


def test_stabilizer_check_makes_one_element_check_per_factor_element(monkeypatch):
    # S8 > S4xS4: the check visits sum |f_i| elements per record, not the
    # prod |f_i| elements of C_H(beta)
    from transchrome import classfun

    sizes, checks = [], []
    real_factors, real_commute = classfun.centralizer_factors, classfun._commute_images

    def factors(H, perms):
        out = real_factors(H, perms)
        sizes.append([len(f) for f in out])
        return out

    def commute(a, b):
        checks.append(1)
        return real_commute(a, b)

    monkeypatch.setattr(classfun, "centralizer_factors", factors)
    monkeypatch.setattr(classfun, "_commute_images", commute)
    S8, H = symmetric_group(8), block_subgroup(4, 2)
    saved = 0
    for h in (1, 2):
        for key in class_table(S8, lam_group(2, h, 3)).classes:
            sizes.clear()
            checks.clear()
            datum = transfer_datum(S8, H, key)
            assert len(sizes) == len(datum.records)
            # one commutation test per component of alpha per element
            assert len(checks) == h * sum(sum(s) for s in sizes)
            for s, rec in zip(sizes, datum.records):
                assert math.prod(s) == rec.stabilizer_order
                saved += math.prod(s) - sum(s)
    assert saved > 0


# -- the integer induction kernel --


@functools.lru_cache(maxsize=None)
def _coset_keys(G, H, lam):
    """Per G-class, the H-class of g^-1 alpha g for every alpha-stable coset
    gH, classified one coset at a time."""
    from transchrome import classfun

    system = classfun._coset_system(G, H)
    g_table, h_table = class_table(G, lam), class_table(H, lam)
    out = {}
    for alpha_key in g_table.classes:
        alpha = g_table.rep_images(alpha_key)
        out[alpha_key] = [
            h_table.key_of_images(classfun._beta_images(system.rep_images(token), alpha))
            for token in system.fixed(alpha)
        ]
    return out


def _fraction_loops(chi, G):
    """Oracle: the Fraction-by-Fraction loops, one addition per coset for
    the plain sum and one per orbit record for the grouped sum."""
    from transchrome import classfun

    H, lam = chi.table.group, chi.table.lam
    _, data = classfun.induction_tables(G, H, lam)
    plain, grouped = {}, {}
    for alpha_key, h_keys in _coset_keys(G, H, lam).items():
        total = Fraction(0)
        for h_key in h_keys:
            total += Fraction(chi[h_key])
        plain[alpha_key] = total
        total = Fraction(0)
        for rec in data[alpha_key].records:
            total += rec.index * Fraction(chi[rec.h_key])
        grouped[alpha_key] = total
    return plain, grouped


_VALUES = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(max_denominator=60),
    st.fractions(max_denominator=60).map(str),
)
# (degree of G, (block size, blocks) of H, (p, h, k) of lam)
_KERNEL_PAIRS = [
    (4, (2, 2), (2, 1, 2)),
    (4, (2, 2), (2, 2, 2)),
    (8, (4, 2), (2, 2, 3)),
    (9, (3, 3), (3, 2, 2)),
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_KERNEL_PAIRS), st.data())
def test_integer_kernel_matches_fraction_loops(pair, data):
    degree, (block, blocks), (p, h, k) = pair
    G, H, lam = symmetric_group(degree), block_subgroup(block, blocks), lam_group(p, h, k)
    ht = class_table(H, lam)
    n = len(ht.classes)
    raw = data.draw(st.lists(_VALUES, min_size=n, max_size=n))
    chi = GenClassFunction(ht, dict(zip(ht.classes, raw)))
    assert all(chi[key] == Fraction(v) for key, v in zip(ht.classes, raw))
    plain, grouped = _fraction_loops(chi, G)
    assert induce(chi, G).values == plain
    assert induce_grouped(chi, G).values == grouped
    assert plain == grouped


@pytest.mark.parametrize("degree,block,blocks,p,h,k,entries", [
    (8, 4, 2, 2, 2, 3, 289),
    (9, 3, 3, 3, 2, 2, 125),
])
def test_plain_table_keeps_one_pair_per_h_class(degree, block, blocks, p, h, k, entries):
    from transchrome import classfun

    G, H = symmetric_group(degree), block_subgroup(block, blocks)
    plain, data = classfun.induction_tables(G, H, lam_group(p, h, k))
    assert sum(map(len, plain.values())) == entries
    for alpha_key, pairs in plain.items():
        keys = [key for key, _ in pairs]
        assert len(set(keys)) == len(keys)
        assert sum(m for _, m in pairs) == data[alpha_key].fixed_count


def test_coefficient_check_catches_swapped_orbit_classes(monkeypatch):
    # swap the H-classes of two records of different index: every count
    # inside _build_datum still holds, only the coefficient check sees it
    from transchrome import classfun

    real = classfun._build_datum
    swaps = []

    def swapped(*args):
        datum = real(*args)
        recs = list(datum.records)
        for i, j in itertools.combinations(range(len(recs)), 2):
            if recs[i].index != recs[j].index and not swaps:
                swaps.append((i, j))
                recs[i], recs[j] = (
                    dataclasses.replace(recs[i], h_key=recs[j].h_key),
                    dataclasses.replace(recs[j], h_key=recs[i].h_key),
                )
                return dataclasses.replace(datum, records=tuple(recs))
        return datum

    monkeypatch.setattr(classfun, "_build_datum", swapped)
    lam = lam_group(2, 1, 3)
    with pytest.raises(InternalMismatch, match="coset multiplicities"):
        classfun._induction_data.__wrapped__((symmetric_group(8), lam), (block_subgroup(4, 2), lam))
    assert swaps


def test_class_function_checks_keys_and_keeps_fractions(s4_setup):
    _, H, lam = s4_setup
    ht = class_table(H, lam)
    values = {key: Fraction(i, 3) for i, key in enumerate(ht.classes)}
    chi = GenClassFunction(ht, values)
    assert all(chi[key] is values[key] for key in ht.classes)
    with pytest.raises(ValueError, match="missing value"):
        GenClassFunction(ht, dict(list(values.items())[1:]))
    with pytest.raises(ValueError, match="outside the class table"):
        GenClassFunction(ht, {**values, "stray": 1})
