import functools
import itertools
import json
import math
import random
import re
import signal
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transchrome.classfun import (
    GenClassFunction,
    TransferDatum,
    _fraction,
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
from transchrome.homclass import classify, lam_group
from transchrome.perm import (
    Perm,
    block_subgroup,
    centralizer,
    generate,
    symmetric_group,
)

from oracles import class_equation_sum, coset_orbits, fixed_cosets, make_tuple


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
    # input: it surfaces as InternalMismatch (exit 4), not as a domain error;
    # here the exhaustive coset table hands its walk one coset of two
    from transchrome.classfun import _build_datum
    from transchrome.perm import _CosetTable

    S4, H, lam = s4_setup
    g_table = class_table(S4, lam)
    h_table = class_table(H, lam)
    system = _CosetTable(S4, H)
    key = sym_class(["(0 1)(2 3)"], 2, 1, 2)
    fixed = system.fixed(g_table.rep_images(key))
    assert len(fixed) == 2
    system.fixed = lambda alpha: fixed[:1]
    with pytest.raises(InternalMismatch):
        _build_datum(g_table, h_table, system, key)


def test_ideal_trivial_rules(s4_setup):
    S4, H, lam = s4_setup
    assert ideal_trivial(S4, H, sym_class(["(0 1)"], 2, 1, 2), False)
    assert not ideal_trivial(S4, H, sym_class(["(0 1)(2 3)"], 2, 1, 2), False)
    assert not ideal_trivial(S4, H, sym_class(["e"], 2, 1, 2), False)
    # p inverted: any stable coset makes the ideal trivial
    assert ideal_trivial(S4, H, sym_class(["e"], 2, 1, 2), True)
    assert not ideal_trivial(S4, H, sym_class(["(0 1 2 3)"], 2, 1, 2), True)


def test_a_lam_that_disagrees_with_a_hom_class_is_refused(s4_setup):
    # a HomClass carries its lam: at its own p = 2 this ideal is not
    # trivial, and a lam of p = 3 given beside it is refused, not read for p
    from transchrome.errors import BadParameters

    S4, H, lam = s4_setup
    hc = sym_class(["(0 1)(2 3)"], 2, 1, 2)
    assert hc.class_id() == "p2.k2.h1:[(U<2>:idx2,m2)]"
    assert not ideal_trivial(S4, H, hc, False)
    assert not ideal_trivial(S4, H, hc, False, lam_group(2, 1, 2))
    assert transfer_datum(S4, H, hc, lam) == transfer_datum(S4, H, hc)
    with pytest.raises(BadParameters, match="differs from the lam"):
        ideal_trivial(S4, H, hc, False, lam_group(3, 1, 1))
    with pytest.raises(BadParameters, match="differs from the lam"):
        transfer_datum(S4, H, hc, lam_group(2, 2, 2))


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
    # every class, the identity (every coset stable) included; and the
    # table's own walk of the centralizer, from a scan of its index of G,
    # must give the orbits and the count that the block model reads off
    # alpha's orbit types
    from transchrome.perm import _BlockCosets, _coset_table

    S4 = s4_setup[0]
    identity = (tuple(range(4)),)
    for block, index in ((2, 6), (1, 24)):
        blocks = _BlockCosets(4, block)
        generic = _coset_table(S4, block_subgroup(block, 4 // block))
        assert len(blocks.fixed(identity)) == index
        for h in (1, 2):
            gt = class_table(S4, lam_group(2, h, 2))
            for alpha in [identity * h] + [gt.rep_images(key) for key in gt.classes]:
                fixed_b = [blocks.rep_images(t) for t in blocks.fixed(alpha)]
                fixed_g = [generic.rep_images(t) for t in generic.fixed(alpha)]
                assert fixed_b == fixed_g
                (orbits_b, count_b), (orbits_g, count_g) = (
                    blocks.centralizer_orbits(alpha), generic.centralizer_orbits(alpha)
                )
                assert [(blocks.rep_images(t), size) for t, size in orbits_b] == [
                    (generic.rep_images(t), size) for t, size in orbits_g
                ]
                assert count_b == count_g == len(fixed_g)


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


def test_product_table_caps_its_classes_before_joining(monkeypatch):
    # Sym(2)^8 has 256 elements, but at (p, h, k) = (2, 3, 4) each block has
    # 8 classes: 8^8 = 16.8 M joins are refused before the first
    from transchrome.classfun import ProductClassTable

    def refuse(self, parts):
        raise AssertionError("joined the classes of an over-cap product table")

    monkeypatch.setattr(ProductClassTable, "_join", refuse)
    with pytest.raises(ResourceLimit, match="8\\^8 classes exceed the product class-table cap 10000"):
        class_table(block_subgroup(2, 8), lam_group(2, 3, 4))


@pytest.mark.parametrize("p,h,k,m,count", [
    (2, 3, 3, 1, 4096), (2, 3, 3, 2, 5041), (2, 6, 2, 1, 4096), (3, 3, 2, 1, 2744),
])
def test_admitted_product_tables_build_under_the_class_cap(p, h, k, m, count):
    # the largest product tables that the CLI's caps admit
    from transchrome.classfun import GENERIC_TABLE_CAP, ProductClassTable

    table = class_table.__wrapped__(block_subgroup(p ** m, p ** (k - m)), lam_group(p, h, k))
    assert isinstance(table, ProductClassTable)
    assert len(table.classes) == count <= GENERIC_TABLE_CAP


@pytest.mark.parametrize("p,h,k,sample", [(13, 1, 1, None), (11, 2, 1, None),
                                          (2, 1, 4, None), (2, 2, 4, 40)])
def test_at_m_equal_k_the_one_coset_is_stable(p, h, k, sample):
    # H = G has one coset, fixed by every alpha: one orbit of index 1 whose
    # H-class is alpha's and whose stabilizer is all of C_G(alpha), and
    # induction from H to G is the identity
    from transchrome import homclass

    degree = p ** k
    G, H, lam = symmetric_group(degree), block_subgroup(degree, 1), lam_group(p, h, k)
    classes = homclass.enumerate_hom_classes(p, h, k)
    if sample:
        classes = random.Random(0).sample(classes, sample)
    for hc in classes:
        datum = transfer_datum(G, H, hc)
        assert datum.fixed_count == 1
        (rec,) = datum.records
        assert (rec.index, rec.h_key, rec.coset_rep) == (1, hc, Perm.identity(degree))
        assert rec.stabilizer_order == homclass.centralizer_order(hc)
    if sample is None:  # induction reads every class
        chi = GenClassFunction.random(class_table(H, lam), random.Random(1))
        assert induce(chi, G).to_json_dict() == chi.to_json_dict()
        assert induce_grouped(chi, G).to_json_dict() == chi.to_json_dict()


# -- the stabilizer proof, from generators --


def _mutated_transfer(monkeypatch, h, cycles, mutate):
    """The transfer datum of one class over S8 > S4xS4, with the generators
    W that the H table gives for C_H(beta) passed through
    ``mutate(W, beta)``; their order is read off the chain of the mutated
    W, as the table reads it off the W it returns."""
    from transchrome.classfun import _build_datum
    from transchrome.perm import StabilizerChain, _coset_system

    G, H, lam = symmetric_group(8), block_subgroup(4, 2), lam_group(2, h, 3)
    g_table, h_table = class_table(G, lam), class_table(H, lam)
    real = h_table.class_and_centralizer

    def mutated(beta):
        h_key, gens, _ = real(beta)
        gens = mutate(list(gens), beta)
        return h_key, gens, StabilizerChain(H.degree, gens).order

    monkeypatch.setattr(h_table, "class_and_centralizer", mutated)
    system = _coset_system(G, H)
    key = sym_class(cycles, 2, h, 3)
    return _build_datum(g_table, h_table, system, key)


def test_stabilizer_check_catches_a_dropped_generator(monkeypatch):
    def drop(gens, beta):
        gens.pop()
        return gens

    with pytest.raises(InternalMismatch, match="stabilizer has order"):
        _mutated_transfer(monkeypatch, 1, ["(0 1)"], drop)


def test_stabilizer_check_catches_an_element_moving_the_coset(monkeypatch):
    # at alpha = e every element commutes with alpha; swapping the two
    # blocks does not fix the coset
    swap = tuple(range(4, 8)) + tuple(range(4))

    def replace(gens, beta):
        gens[-1] = swap
        return gens

    with pytest.raises(InternalMismatch, match="moves the coset"):
        _mutated_transfer(monkeypatch, 1, ["e"], replace)


def test_stabilizer_check_catches_a_point_leaving_its_block(monkeypatch):
    # at alpha = e the one record's coset is the base partition: the
    # transposition (3 4) commutes with alpha and sends one point of each
    # block into the other
    def replace(gens, beta):
        gens[-1] = (0, 1, 2, 4, 3, 5, 6, 7)
        return gens

    with pytest.raises(InternalMismatch, match="moves the coset"):
        _mutated_transfer(monkeypatch, 1, ["e"], replace)


def test_stabilizer_check_catches_an_element_outside_the_centralizer(monkeypatch):
    from transchrome.perm import _commute_images

    def replace(gens, beta):
        # at alpha = (0 1) some block has a permutation that does not
        # commute with beta there: put it in place of a generator
        for lo in (0, 4):
            for t in itertools.permutations(range(lo, lo + 4)):
                image = tuple(range(lo)) + t + tuple(range(lo + 4, 8))
                if not all(_commute_images(image, s) for s in beta):
                    gens[-1] = image
                    return gens
        raise AssertionError("C_H(beta) is all of H")

    with pytest.raises(InternalMismatch, match="not in the centralizer"):
        _mutated_transfer(monkeypatch, 1, ["(0 1)"], replace)


def test_stabilizer_check_catches_a_wrong_order(monkeypatch):
    from transchrome import classfun

    calls = []
    real = classfun._verify_stabilizer
    monkeypatch.setattr(classfun, "_verify_stabilizer", lambda *args: calls.append(args))
    classfun._induction_data.cache_clear()  # a kept datum would skip the proof
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


def _refuse(*args, **kwargs):
    raise AssertionError("the block path listed or walked the stable cosets")


@pytest.mark.parametrize("p,k,h", [(2, 3, 1), (2, 3, 2), (3, 2, 1), (3, 2, 2)])
def test_transfer_datum_lists_and_walks_no_stable_coset(monkeypatch, p, k, h):
    # S8 > S4xS4 and S9 > S3^3: with the listing, every walk and every
    # centralizer scan refused, transfer_datum still gives the datum of the
    # induction tables, which list the cosets
    from transchrome import classfun, perm
    from transchrome.classfun import induction_tables

    G, H, lam = symmetric_group(p ** k), block_subgroup(p ** (k - 1), p), lam_group(p, h, k)
    _, data = induction_tables(G, H, lam)
    classfun._induction_data.cache_clear()  # transfer_datum proves each class again
    monkeypatch.setattr(perm._BlockCosets, "fixed", _refuse)
    monkeypatch.setattr(perm._CosetTable, "centralizer_orbits", _refuse)
    monkeypatch.setattr(perm, "_orbit_reps", _refuse)
    monkeypatch.setattr(perm, "_centralizer_scan", _refuse)
    monkeypatch.setattr(classfun, "_centralizer_scan", _refuse)
    for key in class_table(G, lam).classes:
        assert transfer_datum(G, H, key) == data[key]


def pair_data_lines(G, H, lam):
    """One JSON line per class of G at lam for its transfer datum along H:
    class id, stable-coset count, centralizer order, and per orbit record
    its coset representative in cycle notation, H-class id, stabilizer
    order and index."""
    from transchrome.homclass import HomClass

    g_table, h_table = class_table(G, lam), class_table(H, lam)
    lines = []
    for key in g_table.classes:
        alpha = key if isinstance(key, HomClass) else [Perm(s) for s in key]
        datum = transfer_datum(G, H, alpha, lam)
        lines.append(json.dumps([g_table.class_id(key), datum.fixed_count, datum.centralizer_order, [
            [rec.coset_rep.cycles(), h_table.class_id(rec.h_key), rec.stabilizer_order, rec.index]
            for rec in datum.records
        ]]))
    return lines


def transfer_data_lines(p, h, k):
    """(datum lines, fiber lines) at (p, h, k): one JSON line per class of
    Sym(p^k) for its transfer datum along Sym(p^(k-1))^p, then one per
    block level under the index cap and class for its ``coset_fiber``."""
    from transchrome.homclass import coset_fiber, enumerate_hom_classes
    from transchrome.perm import INDEX_CAP, young_index

    G, H, lam = symmetric_group(p ** k), block_subgroup(p ** (k - 1), p), lam_group(p, h, k)
    data = pair_data_lines(G, H, lam)
    fibers = [
        json.dumps([m, hc.class_id(), [
            [orbit.partition, orbit.coset_rep.cycles(),
             [c.class_id() for c in orbit.block_classes],
             orbit.orbit_size, orbit.stabilizer_order]
            for orbit in coset_fiber(hc, m)
        ]])
        for m in range(k + 1) if young_index(p ** k, p ** m) <= INDEX_CAP
        for hc in enumerate_hom_classes(p, h, k)
    ]
    return data, fibers


@pytest.mark.parametrize("p,h,k", [(2, 1, 2), (2, 2, 2), (2, 1, 3), (2, 2, 3),
                                   (3, 1, 2), (3, 2, 2), (2, 3, 2)])
def test_transfer_data_match_the_recorded_digests(p, h, k):
    # the digests were recorded before centralizer orbits were read once per
    # layout; every datum and fiber must read as it did then
    import hashlib
    import os

    path = os.path.join(os.path.dirname(__file__), "fixtures", "transfer_data_digests.json")
    with open(path) as fh:
        want = json.load(fh)["instances"]["%d,%d,%d" % (p, h, k)]
    data, fibers = transfer_data_lines(p, h, k)
    assert hashlib.sha256("\n".join(data).encode()).hexdigest() == want["transfer_datum"]
    assert hashlib.sha256("\n".join(fibers).encode()).hexdigest() == want["coset_fiber"]


# pairs whose data go through the exhaustive coset table: it walks the
# generators that one scan of its index of G gives, and every coset
# representative is printed by ``Perm.cycles``
DIGEST_PAIRS = {
    "Sym(4) > Z4": (
        lambda: (symmetric_group(4), generate(4, [P("(0 1 2 3)", 4)])), [(2, 1, 2), (2, 2, 2)]
    ),
    "Sym(3) > A3": (
        lambda: (symmetric_group(3), generate(3, [P("(0 1 2)", 3)])), [(3, 1, 1), (3, 2, 1)]
    ),
    "Sym(2) > 1": (lambda: (symmetric_group(2), generate(2, [])), [(2, 1, 1), (2, 2, 1)]),
    "Sym(3) > 1": (lambda: (symmetric_group(3), generate(3, [])), [(3, 1, 1), (3, 2, 1)]),
    "Sym(5) > 1": (lambda: (symmetric_group(5), generate(5, [])), [(5, 1, 1), (5, 2, 1)]),
    "Sym(4)^2 > Sym(2)^4": (
        lambda: (block_subgroup(4, 2), block_subgroup(2, 4)), [(2, 1, 2), (2, 2, 2)]
    ),
}


@pytest.mark.parametrize("pair,p,h,k", [
    (pair,) + phk for pair, (_, triples) in DIGEST_PAIRS.items() for phk in triples
])
def test_pair_transfer_data_match_the_recorded_digests(pair, p, h, k):
    # the digests were recorded while ``generate`` still closed breadth
    # first, the exhaustive walk took the centralizer's generators from
    # ``centralizer_generators`` and ``Perm.cycles`` walked its own cycles
    import hashlib
    import os

    path = os.path.join(os.path.dirname(__file__), "fixtures", "transfer_data_digests.json")
    with open(path) as fh:
        want = json.load(fh)["pairs"]["%s at %d,%d,%d" % (pair, p, h, k)]
    G, H = DIGEST_PAIRS[pair][0]()
    lines = pair_data_lines(G, H, lam_group(p, h, k))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == want


@pytest.mark.parametrize("pair,p,h,k", [
    ("Sym(4) > Z4", 2, 1, 2), ("Sym(4) > Z4", 2, 2, 2),
    ("Sym(3) > A3", 3, 1, 1), ("Sym(3) > A3", 3, 2, 1), ("Sym(5) > 1", 5, 1, 1),
])
def test_non_young_transfer_data_read_no_orbit_type_generators(monkeypatch, pair, p, h, k):
    # the exhaustive coset table walks generators it scans from its own
    # index of G: with the orbit-type reading of centralizer generators
    # refused, the induction tables answer as before
    from transchrome import classfun, perm
    from transchrome.classfun import induction_tables

    G, H = DIGEST_PAIRS[pair][0]()
    lam = lam_group(p, h, k)
    plain, data = induction_tables(G, H, lam)

    def refuse(*args):
        raise AssertionError("a non-Young transfer read orbit-type generators")

    monkeypatch.setattr(perm, "_centralizer", refuse)
    monkeypatch.setattr(classfun, "_centralizer", refuse)
    tables = classfun._induction_data.__wrapped__((G, lam), (H, lam)).tables
    assert (tables.plain, tables.data) == (plain, data)


def _wrong_first_orbit(monkeypatch, count_agrees):
    """Make the block model report its first orbit p times too large, p = 3
    for S9 > S3^3; with ``count_agrees`` its count of stable partitions is
    the sum of the sizes it reports."""
    from transchrome import perm

    real = perm._BlockCosets.centralizer_orbits

    def wrong(self, alpha):
        orbits, count = real(self, alpha)
        if orbits:
            (token, size), rest = orbits[0], orbits[1:]
            orbits = [(token, 3 * size)] + rest
            if count_agrees:
                count += 2 * size
        return orbits, count

    monkeypatch.setattr(perm._BlockCosets, "centralizer_orbits", wrong)


@pytest.mark.parametrize("count_agrees", [False, True])
def test_a_wrong_orbit_size_is_a_mismatch(monkeypatch, count_agrees):
    # the count check sees a wrong size; with the count made to agree, the
    # divisibility check or the stabilizer proof still sees it
    from transchrome import classfun

    G, H, lam = symmetric_group(9), block_subgroup(3, 3), lam_group(3, 1, 2)
    keys = [key for key in class_table(G, lam).classes if transfer_datum(G, H, key).records]
    assert keys
    _wrong_first_orbit(monkeypatch, count_agrees)
    classfun._induction_data.cache_clear()  # a kept datum would skip the fault
    for key in keys:
        with pytest.raises(InternalMismatch):
            transfer_datum(G, H, key)
    # at alpha = e the one orbit has 1680 partitions, 3 * 1680 divides 9!
    identity = sym_class(["e"], 3, 1, 2)
    match = "stabilizer has order" if count_agrees else "do not add up"
    with pytest.raises(InternalMismatch, match=match):
        transfer_datum(G, H, identity)


def test_listed_cosets_must_match_their_count(monkeypatch):
    # the induction tables list the stable cosets for the plain sum; a list
    # one short of the count of _build_datum is a mismatch
    from transchrome import classfun, perm

    real = perm._BlockCosets.fixed
    monkeypatch.setattr(perm._BlockCosets, "fixed", lambda self, alpha: real(self, alpha)[:-1])
    G, H, lam = symmetric_group(8), block_subgroup(4, 2), lam_group(2, 1, 3)
    with pytest.raises(InternalMismatch, match="stable cosets listed"):
        classfun._induction_data.__wrapped__((G, lam), (H, lam)).tables


def test_stabilizer_check_makes_h_commutation_checks_per_generator(monkeypatch):
    # S8 > S4xS4: the proof tests each generator of W once against each of
    # the h components of alpha, h*|W| commutation checks per record
    from transchrome import classfun

    sizes, checks = [], []
    real_commute = classfun._commute_images

    def commute(a, b):
        checks.append(1)
        return real_commute(a, b)

    S8, H = symmetric_group(8), block_subgroup(4, 2)
    for h in (1, 2):
        lam = lam_group(2, h, 3)
        h_table = class_table(H, lam)
        real_of = h_table.class_and_centralizer

        def of(beta):
            h_key, gens, order = real_of(beta)
            sizes.append(len(gens))
            return h_key, gens, order

        monkeypatch.setattr(h_table, "class_and_centralizer", of)
        monkeypatch.setattr(classfun, "_commute_images", commute)
        classfun._induction_data.cache_clear()  # a kept datum would make no check
        for key in class_table(S8, lam).classes:
            sizes.clear()
            checks.clear()
            datum = transfer_datum(S8, H, key)
            assert len(sizes) == len(datum.records)
            assert len(checks) == h * sum(sizes)
            for size, rec in zip(sizes, datum.records):
                assert (size > 0) == (rec.stabilizer_order > 1)
        monkeypatch.undo()


def _closure(gens, degree):
    """Oracle: the set of image tuples generated by ``gens``."""
    from transchrome.perm import _compose

    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        step = []
        for x in frontier:
            for s in gens:
                y = _compose(s, x)
                if y not in seen:
                    seen.add(y)
                    step.append(y)
        frontier = step
    return seen


@pytest.mark.parametrize("p,k,block,blocks", [(2, 3, 4, 2), (3, 2, 3, 3)])
@pytest.mark.parametrize("h", [1, 2])
def test_generated_centralizer_is_the_scan_on_every_record(p, k, block, blocks, h):
    # S8 > S4xS4 and S9 > S3^3: on every orbit record <W> is the scanned
    # C_H(beta) as a set, the chain order is its size, and the class read
    # in the same block pass is beta's
    from transchrome.perm import _compose, _coset_system, _stable_orbits

    from oracles import centralizer_factors

    G, H, lam = symmetric_group(p ** k), block_subgroup(block, blocks), lam_group(p, h, k)
    g_table, h_table = class_table(G, lam), class_table(H, lam)
    system = _coset_system(G, H)
    records = 0
    for key in g_table.classes:
        alpha = g_table.rep_images(key)
        for _, _, stab_order, _, beta in _stable_orbits(
            system, alpha, g_table.centralizer_order(key)
        )[0]:
            h_key, gens, order = h_table.class_and_centralizer(beta)
            assert h_key == h_table.key_of_images(beta)
            factors = centralizer_factors(H, [Perm(s) for s in beta])
            scan = {functools.reduce(_compose, c) for c in itertools.product(*factors)}
            assert _closure(gens, H.degree) == scan
            assert order == len(scan) == stab_order
            records += 1
    assert records


# -- one centralizer proof for both Young tables: |<W>| once per orbit type --


def _young_records(p, h, k):
    """(degree, block, h_table, beta) for every orbit record of every
    G-class of Sym(p^k) > Sym(p^m)^(p^(k-m)) at every m whose coset model
    and H table are admitted under their caps."""
    from transchrome.perm import _coset_system, _stable_orbits

    degree, lam = p ** k, lam_group(p, h, k)
    G = symmetric_group(degree)
    g_table = class_table(G, lam)
    out = []
    for m in range(k + 1):
        H = block_subgroup(p ** m, p ** (k - m))
        try:
            system = _coset_system(G, H)
            h_table = class_table(H, lam)
        except ResourceLimit:
            continue
        for key in g_table.classes:
            orbits, _ = _stable_orbits(system, g_table.rep_images(key), g_table.centralizer_order(key))
            out.extend((degree, p ** m, h_table, beta) for *_, beta in orbits)
    return out


@pytest.mark.parametrize("p,h,k,levels", [(2, 2, 3, 4), (3, 2, 2, 2), (2, 1, 4, 1)])
def test_centralizer_is_the_full_chain_path_on_every_record(p, h, k, levels):
    # on every record at every admitted m, the orbit-type proof gives the
    # same W and |<W>| as one chain over all the points of each block, and
    # both Young tables answer with it
    from transchrome.perm import _centralizer

    from oracles import full_chain_centralizer

    records = _young_records(p, h, k)
    assert len({block for _, block, _, _ in records}) == levels
    for degree, block, h_table, beta in records:
        want = full_chain_centralizer(beta, degree, block)
        assert _centralizer(beta, degree, block) == want
        assert h_table.class_and_centralizer(beta)[1:] == want


def test_type_chain_misses_are_the_distinct_orbit_types(monkeypatch):
    # one chain per distinct (shape, copies) pair, counted here from
    # ``_orbit_shapes`` per block; every other lookup is a hit
    from transchrome import perm

    chains = []
    real = perm._chain_generators

    def counted(*args):
        chains.append(args)
        return real(*args)

    monkeypatch.setattr(perm, "_chain_generators", counted)
    perm._type_chain.cache_clear()
    distinct, lookups = set(), 0
    for p, h, k in [(2, 2, 3), (3, 2, 2), (2, 1, 4)]:
        for degree, block, _, beta in _young_records(p, h, k):
            types = Counter()
            for orbit, shape in perm._orbit_shapes(beta, degree):
                types[orbit[0] // block, shape] += 1
            distinct.update((shape, m) for (_, shape), m in types.items())
            lookups += len(types)
            perm._centralizer(beta, degree, block)
    info = perm._type_chain.cache_info()
    assert info.misses == len(chains) == len(distinct) < info.maxsize
    assert info.hits + info.misses == lookups
    assert info.currsize == len(distinct)


def _classes_with_records(block, blocks):
    """(G, H, the G-classes of Sym(8) > Sym(block)^blocks at (2,1,3) with
    an orbit record); the store is then cleared, so each is proven again."""
    from transchrome import classfun

    G, H, lam = symmetric_group(8), block_subgroup(block, blocks), lam_group(2, 1, 3)
    keys = [key for key in class_table(G, lam).classes if transfer_datum(G, H, key).records]
    assert keys
    classfun._induction_data.cache_clear()
    return G, H, keys


@pytest.mark.parametrize("block,blocks", [(4, 2), (8, 1)])
def test_a_memoized_type_order_times_p_is_a_mismatch(monkeypatch, block, blocks):
    from transchrome import perm

    G, H, keys = _classes_with_records(block, blocks)
    real = perm._type_chain

    def wrong(shape, m):
        kept, order = real(shape, m)
        return kept, 2 * order

    monkeypatch.setattr(perm, "_type_chain", wrong)
    for key in keys:
        with pytest.raises(InternalMismatch, match="stabilizer has order"):
            transfer_datum(G, H, key)


@pytest.mark.parametrize("block,blocks", [(4, 2), (8, 1)])
def test_a_dropped_kept_type_generator_is_a_mismatch(monkeypatch, block, blocks):
    # the pruning hands the memo one generator short; the memo's order is
    # that of the generators it keeps, so it falls short of the stabilizer
    from transchrome import perm

    G, H, keys = _classes_with_records(block, blocks)
    real = perm._chain_generators

    def dropped(*args):
        gens, order = real(*args)
        return gens[:-1], order

    monkeypatch.setattr(perm, "_chain_generators", dropped)
    perm._type_chain.cache_clear()
    for key in keys:
        with pytest.raises(InternalMismatch, match="stabilizer has order"):
            transfer_datum(G, H, key)


@pytest.mark.parametrize("block", [4, 8])
def test_a_type_generator_sent_onto_another_types_point_is_a_mismatch(monkeypatch, block):
    # beta = (0 1) on 8 points has the types {0, 1} and the fixed points;
    # the orbit walk is made to list the point 0 in place of the last
    # fixed point, so a relabelled shuffle of the fixed points sends a
    # point onto 0, and the cover check refuses the result
    from transchrome import perm

    beta = (P("(0 1)", 8).images,)
    want = perm._centralizer(beta, 8, block)
    real = perm._orbit_shapes

    def misplaced(imgs, degree):
        out = real(imgs, degree)
        orbit, shape = out[-1]
        return out[:-1] + [(orbit[:-1] + [0], shape)]

    monkeypatch.setattr(perm, "_orbit_shapes", misplaced)
    with pytest.raises(InternalMismatch, match="cover"):
        perm._centralizer(beta, 8, block)
    H = block_subgroup(block, 8 // block)
    with pytest.raises(InternalMismatch, match="cover"):
        class_table(H, lam_group(2, 1, 3)).class_and_centralizer(beta)
    monkeypatch.undo()
    assert perm._centralizer(beta, 8, block) == want


@pytest.mark.parametrize("m", [2, 3])
def test_records_keep_the_h_tables_own_keys(m):
    # the store keeps each record's H-class as the very object in the H
    # table's ``classes``, not a second copy of it
    G, H, lam = symmetric_group(8), block_subgroup(2 ** m, 2 ** (3 - m)), lam_group(2, 2, 3)
    own = {id(key) for key in class_table(H, lam).classes}
    records = [
        rec for key in class_table(G, lam).classes for rec in transfer_datum(G, H, key).records
    ]
    assert records
    assert all(id(rec.h_key) in own for rec in records)



def test_a_datum_is_kept_under_the_g_tables_own_key():
    # a permutation tuple is classified into a fresh key, and a HomClass a
    # caller built is an object of its own: the store and the datum keep
    # the G table's key object instead, as the records keep the H table's
    from transchrome import classfun
    from transchrome.homclass import HomClass

    G, H, lam = symmetric_group(8), block_subgroup(4, 2), lam_group(2, 1, 3)
    classes = class_table(G, lam).classes
    own = {id(key) for key in classes}
    datum = transfer_datum(G, H, [Perm.from_cycles("(0 1)", 8)], lam)
    assert id(datum.alpha_key) in own
    key = classes[-1]
    built = HomClass(key.lam, key.orbit_types)
    assert built == key and built is not key
    assert transfer_datum(G, H, built).alpha_key is key
    store = classfun._induction_data((G, lam), (H, lam))
    assert all(id(alpha_key) in own for alpha_key in store._data)
    # a product G table keys a permutation tuple by a joined tuple
    G2, H2 = block_subgroup(4, 2), block_subgroup(2, 4)
    own2 = {id(key) for key in class_table(G2, lam).classes}
    datum = transfer_datum(G2, H2, [Perm.from_cycles("(0 1)(4 5)", 8)], lam)
    assert id(datum.alpha_key) in own2


# -- the integer induction kernel --


@functools.lru_cache(maxsize=None)
def _coset_keys(G, H, lam):
    """Per G-class, the H-class of g^-1 alpha g for every alpha-stable coset
    gH, classified one coset at a time."""
    from transchrome.perm import _coset_system, _lift

    system = _coset_system(G, H)
    g_table, h_table = class_table(G, lam), class_table(H, lam)
    out = {}
    for alpha_key in g_table.classes:
        alpha = g_table.rep_images(alpha_key)
        out[alpha_key] = [
            h_table.key_of_images(_lift(system, token, alpha)[1])
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
    assert chi.den == math.lcm(*(Fraction(v).denominator for v in raw))
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


def _d8():
    """The dihedral group of order 8 that contains Sym(2)^2 on {0,1},{2,3}."""
    return generate(4, [Perm.from_cycles("(0 1)", 4), Perm.from_cycles("(0 2)(1 3)", 4)])


# (G, H, (p, h, k)): the acceptance pairs; the Young pairs at m = 0 and
# m = k; a Young H in a group that is not symmetric, over the coset table
_ORACLE_PAIRS = {
    "S4>S2^2-h1": (lambda: symmetric_group(4), lambda: block_subgroup(2, 2), (2, 1, 2)),
    "S4>S2^2-h2": (lambda: symmetric_group(4), lambda: block_subgroup(2, 2), (2, 2, 2)),
    "S8>S4^2-h1": (lambda: symmetric_group(8), lambda: block_subgroup(4, 2), (2, 1, 3)),
    "S8>S4^2-h2": (lambda: symmetric_group(8), lambda: block_subgroup(4, 2), (2, 2, 3)),
    "S9>S3^3-h1": (lambda: symmetric_group(9), lambda: block_subgroup(3, 3), (3, 1, 2)),
    "S9>S3^3-h2": (lambda: symmetric_group(9), lambda: block_subgroup(3, 3), (3, 2, 2)),
    "S4>S1^4-m0": (lambda: symmetric_group(4), lambda: block_subgroup(1, 4), (2, 2, 2)),
    "S8>S1^8-m0": (lambda: symmetric_group(8), lambda: block_subgroup(1, 8), (2, 1, 3)),
    "S9>S9-mk": (lambda: symmetric_group(9), lambda: block_subgroup(9, 1), (3, 1, 2)),
    "S4>S4-mk": (lambda: symmetric_group(4), lambda: block_subgroup(4, 1), (2, 2, 2)),
    "D8>S2^2": (_d8, lambda: block_subgroup(2, 2), (2, 2, 2)),
}


@pytest.mark.parametrize("name", list(_ORACLE_PAIRS))
def test_induction_tables_match_the_lift_and_key_oracle(name):
    # the plain pairs, in order, are those of lifting each listed stable
    # coset to g^-1 alpha g and keying it whole; each record's class is the
    # key of its beta, and its datum is transfer_datum's
    from transchrome import classfun

    make_g, make_h, (p, h, k) = _ORACLE_PAIRS[name]
    G, H, lam = make_g(), make_h(), lam_group(p, h, k)
    plain, data = classfun.induction_tables(G, H, lam)
    classfun._induction_data.cache_clear()  # transfer_datum proves each class again
    h_table = class_table(H, lam)
    keys = _coset_keys(G, H, lam)
    assert list(plain) == list(keys) == list(data)
    for alpha_key, h_keys in keys.items():
        counts = {}
        for h_key in h_keys:
            counts[h_key] = counts.get(h_key, 0) + 1
        assert plain[alpha_key] == tuple(counts.items())
        alpha = [Perm(s) for s in class_table(G, lam).rep_images(alpha_key)]
        for rec in data[alpha_key].records:
            g = rec.coset_rep
            beta = tuple((g.inverse() * s * g).images for s in alpha)
            assert rec.h_key == h_table.key_of_images(beta)
        assert classfun.transfer_datum(G, H, alpha, lam) == data[alpha_key]


def _block_key_mutant(factor):
    """(key_of_images, mutated): the factor table's key_of_images, except
    that the first block action keyed to a class other than the
    identity's, which ``mutated`` records, is keyed as the identity."""
    real = factor.key_of_images
    identity = real((tuple(range(4)),))
    mutated = []

    def key_of_images(local):
        key = real(local)
        if not mutated and key != identity:
            mutated.append(local)
        return identity if local in mutated else key

    return key_of_images, mutated


def test_a_mutated_block_key_is_a_multiplicity_mismatch(monkeypatch):
    # S8 > S4xS4: the plain table keys each block of each listed partition
    # by the factor table (``partition_counts``).  One block action keyed
    # there as the identity's class moves its cosets to another H-class;
    # the orbit records are classified without ``partition_counts``, so
    # only the multiplicity check sees it
    from transchrome import classfun
    from transchrome.classfun import ProductClassTable

    G, H, lam = symmetric_group(8), block_subgroup(4, 2), lam_group(2, 1, 3)
    factor = class_table(H, lam).factor
    key_of_images, mutated = _block_key_mutant(factor)
    real = ProductClassTable.partition_counts

    def partition_counts(self, alpha, partitions):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(factor, "key_of_images", key_of_images)
            return real(self, alpha, partitions)

    monkeypatch.setattr(ProductClassTable, "partition_counts", partition_counts)
    with pytest.raises(InternalMismatch, match="coset multiplicities differ"):
        classfun._induction_data.__wrapped__((G, lam), (H, lam)).tables
    assert len(mutated) == 1


def test_a_mutated_block_key_in_the_class_table_fails_the_stabilizer_proof(monkeypatch):
    # the same mutant read by the H table itself: the record of the
    # mutated block action takes the identity's class, whose centralizer
    # order is not |<W>|, so the proof raises before any multiplicity is
    # compared
    from transchrome import classfun

    G, H, lam = symmetric_group(8), block_subgroup(4, 2), lam_group(2, 1, 3)
    factor = class_table(H, lam).factor
    key_of_images, mutated = _block_key_mutant(factor)
    monkeypatch.setattr(factor, "key_of_images", key_of_images)
    with pytest.raises(InternalMismatch, match="class table gives"):
        classfun._induction_data.__wrapped__((G, lam), (H, lam)).tables
    assert len(mutated) == 1


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
                a, b = recs[i], recs[j]
                recs[i] = classfun.OrbitRecord(a.coset_rep, b.h_key, a.stabilizer_order, a.index)
                recs[j] = classfun.OrbitRecord(b.coset_rep, a.h_key, b.stabilizer_order, b.index)
                return classfun.TransferDatum(
                    datum.alpha_key, datum.fixed_count, datum.centralizer_order, tuple(recs)
                )
        return datum

    monkeypatch.setattr(classfun, "_build_datum", swapped)
    lam = lam_group(2, 1, 3)
    with pytest.raises(InternalMismatch, match="coset multiplicities"):
        classfun._induction_data.__wrapped__((symmetric_group(8), lam), (block_subgroup(4, 2), lam)).tables
    assert swaps


def test_class_function_checks_keys_and_keeps_fractions(s4_setup):
    _, H, lam = s4_setup
    ht = class_table(H, lam)
    values = {key: Fraction(i, 3) for i, key in enumerate(ht.classes)}
    chi = GenClassFunction(ht, values)
    assert all(chi[key] == values[key] for key in ht.classes)
    with pytest.raises(ValueError, match="missing value"):
        GenClassFunction(ht, dict(list(values.items())[1:]))
    with pytest.raises(ValueError, match="outside the class table"):
        GenClassFunction(ht, {**values, "stray": 1})


def _randint_oracle(table, rng):
    """The draws as ``GenClassFunction.random`` once made them, one
    Fraction per class."""
    return {key: Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for key in table.classes}


@pytest.mark.parametrize("block,blocks,p,h,k", [(4, 2, 2, 2, 3), (3, 3, 3, 2, 2)])
@pytest.mark.parametrize("seed", [0, 1, 5, 31, 2 ** 32 - 1])
def test_random_draws_match_the_randint_oracle(block, blocks, p, h, k, seed):
    # the seeded sequences of reproduce and of the warm benchmark rest on
    # these draws: same values, and the same random bits consumed
    ht = class_table(block_subgroup(block, blocks), lam_group(p, h, k))
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    chi = GenClassFunction.random(ht, rng)
    assert chi.values == _randint_oracle(ht, oracle_rng)
    assert rng.getstate() == oracle_rng.getstate()
    assert GenClassFunction.random(ht, rng) == GenClassFunction(ht, _randint_oracle(ht, oracle_rng))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_equality_matches_fraction_dict_equality(s4_setup, data):
    _, H, lam = s4_setup
    ht = class_table(H, lam)
    n = len(ht.classes)
    nums = data.draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n))
    den, scale = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 6))
    other = [v * scale for v in nums]
    if data.draw(st.booleans()):
        other[data.draw(st.integers(0, n - 1))] += data.draw(st.integers(-2, 2))
    a = GenClassFunction._over(ht, nums, den)
    b = GenClassFunction._over(ht, other, den * scale)
    expected = a.values == b.values
    assert (a == b) is expected
    assert (b == a) is expected


def test_equality_across_denominators(s4_setup):
    _, H, lam = s4_setup
    ht = class_table(H, lam)
    one = GenClassFunction.constant(ht, 1)
    halves = GenClassFunction._over(ht, [2] * len(ht.classes), 2)
    assert (one.den, halves.den) == (1, 2)
    assert one == halves and halves == one
    assert halves.values == one.values == {key: 1 for key in ht.classes}
    assert halves != GenClassFunction.constant(ht, 2)
    assert one != GenClassFunction.constant(class_table(symmetric_group(4), lam), 1)


def _weighted_sums(values, terms, g_table):
    """Oracle: the dict-keyed integer sums.  Per G-class, the sum of
    m * (numerator at h_key) over the (h_key, m) pairs ``terms[alpha_key]``,
    over the common denominator of ``values``, a dict H-class -> Fraction."""
    den = math.lcm(*(v.denominator for v in values.values()))
    nums = {key: v.numerator * (den // v.denominator) for key, v in values.items()}
    return {
        alpha_key: Fraction(sum(m * nums[h_key] for h_key, m in terms[alpha_key]), den)
        for alpha_key in g_table.classes
    }


@pytest.mark.parametrize("h", [1, 2])
@pytest.mark.parametrize("degree,H,p,k", [
    (8, block_subgroup(4, 2), 2, 3),
    (9, block_subgroup(3, 3), 3, 2),
    (4, generate(4, [P("(0 1 2 3)", 4)]), 2, 2),
])
def test_list_kernels_match_the_dict_keyed_sums(degree, H, p, k, h):
    from transchrome import classfun

    G, lam = symmetric_group(degree), lam_group(p, h, k)
    g_table, h_table = class_table(G, lam), class_table(H, lam)
    plain, data = classfun.induction_tables(G, H, lam)
    grouped = {
        alpha_key: [(rec.h_key, rec.index) for rec in datum.records]
        for alpha_key, datum in data.items()
    }
    for seed in range(3):
        rng = random.Random(seed)
        chi_values, psi_values = _randint_oracle(h_table, rng), _randint_oracle(h_table, rng)
        g_values = _randint_oracle(g_table, rng)
        chi, psi = GenClassFunction(h_table, chi_values), GenClassFunction(h_table, psi_values)
        g_chi = GenClassFunction(g_table, g_values)
        induced = _weighted_sums(chi_values, plain, g_table)
        assert induce(chi, G).values == induced
        assert induce_grouped(chi, G).values == _weighted_sums(chi_values, grouped, g_table)
        assert restrict(g_chi, H).values == {
            key: g_values[g_table.key_of_images(h_table.rep_images(key))]
            for key in h_table.classes
        }
        for table, a, b in ((h_table, chi_values, psi_values), (g_table, induced, g_values)):
            expected = sum(a[key] * b[key] / table.centralizer_order(key) for key in table.classes)
            assert inner_product(GenClassFunction(table, a), GenClassFunction(table, b)) == expected


@pytest.mark.parametrize("degree,block,blocks,p,h,k", [(8, 4, 2, 2, 2, 3), (9, 3, 3, 3, 2, 2)])
def test_induction_tables_keep_what_the_warm_benchmark_reads(degree, block, blocks, p, h, k):
    # perfbench/warm.py unpacks (plain, data) and compares transfer_datum
    # with data[key]; perfbench/spans.py reads the cache of _induction_data
    # and times induce and induce_grouped by name
    from transchrome import classfun

    G, H, lam = symmetric_group(degree), block_subgroup(block, blocks), lam_group(p, h, k)
    tables = classfun.induction_tables(G, H, lam)
    assert type(tables) is tuple and len(tables) == 2
    plain, data = tables
    classfun._induction_data.cache_clear()  # transfer_datum proves each class again
    g_table = class_table(G, lam)
    assert list(plain) == list(data) == list(g_table.classes)
    for key in g_table.classes:
        assert isinstance(data[key], TransferDatum)
        assert transfer_datum(G, H, key) == data[key]
    assert hasattr(classfun._induction_data, "cache_info")
    assert callable(classfun.induce) and callable(classfun.induce_grouped)


# -- the per-pair store behind transfer_datum and the induction tables --


def _counting_build(monkeypatch):
    """Count the calls of ``_build_datum`` in a list; each runs in full."""
    from transchrome import classfun

    calls = []
    real = classfun._build_datum

    def counting(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(classfun, "_build_datum", counting)
    return calls


def test_transfer_data_after_the_tables_prove_nothing_again(monkeypatch):
    # the induction tables prove every class of S8 > S4xS4 at (2,2,3);
    # transfer_datum then reads the datum they keep
    from transchrome import classfun

    G, H, lam = symmetric_group(8), block_subgroup(4, 2), lam_group(2, 2, 3)
    classfun._induction_data.cache_clear()
    calls = _counting_build(monkeypatch)
    _, data = classfun.induction_tables(G, H, lam)
    assert len(calls) == len(data) == 148
    calls.clear()
    for key in class_table(G, lam).classes:
        assert transfer_datum(G, H, key) is data[key]
    assert calls == []


def test_a_cleared_store_proves_a_mutated_orbit_size_again(monkeypatch):
    # a kept datum is read as it was proven; once the store is emptied the
    # same request runs the proof and sees the fault
    from transchrome import classfun

    G, H, lam = symmetric_group(9), block_subgroup(3, 3), lam_group(3, 1, 2)
    identity = sym_class(["e"], 3, 1, 2)
    classfun._induction_data.cache_clear()
    kept = transfer_datum(G, H, identity)
    _wrong_first_orbit(monkeypatch, False)
    assert transfer_datum(G, H, identity) is kept
    classfun._induction_data.cache_clear()
    with pytest.raises(InternalMismatch, match="do not add up"):
        transfer_datum(G, H, identity)


def test_induction_tables_keep_class_table_order_after_out_of_order_requests():
    from transchrome import classfun

    G, H, lam = symmetric_group(8), block_subgroup(4, 2), lam_group(2, 2, 3)
    classes = class_table(G, lam).classes
    classfun._induction_data.cache_clear()
    early = {key: transfer_datum(G, H, key) for key in classes[::-3]}
    plain, data = classfun.induction_tables(G, H, lam)
    assert list(plain) == list(data) == list(classes)
    assert all(data[key] is datum for key, datum in early.items())


def _distinct_pairs():
    """(Sym(p^k), Sym(p^m)^(p^(k-m)), lam) for small (p, h, k), every m whose
    index is under the cap: 39 distinct pairs, more than the store keeps."""
    for p, k, hs in [(2, 1, (1, 2, 3, 4)), (3, 1, (1, 2, 3)), (5, 1, (1, 2)),
                     (2, 2, (1, 2, 3)), (3, 2, (1, 2)), (2, 3, (1, 2))]:
        for h in hs:
            lam = lam_group(p, h, k)
            for m in range(k + 1):
                if (p, k, m) != (3, 2, 0):  # index 9! is over the cap
                    yield symmetric_group(p ** k), block_subgroup(p ** m, p ** (k - m)), lam


def test_the_store_keeps_at_most_its_bound_of_pairs():
    from transchrome import classfun

    bound = classfun.INDUCTION_PAIRS
    pairs = list(_distinct_pairs())[:bound + 1]
    classfun._induction_data.cache_clear()
    for G, H, lam in pairs:
        classfun._induction_data((G, lam), (H, lam))
    info = classfun._induction_data.cache_info()
    assert info.maxsize == bound
    assert info.misses == bound + 1
    assert info.currsize == bound
    # the least recently used pair, the first, went
    G, H, lam = pairs[0]
    classfun._induction_data((G, lam), (H, lam))
    assert classfun._induction_data.cache_info().misses == bound + 2


def test_one_reproduce_proves_each_datum_once(monkeypatch, capsys):
    # every pair the acceptance matrix touches fits in the store, so none
    # is dropped and proven again: 275 proofs, where 347 requests reach them
    from transchrome import classfun, cli

    classfun._induction_data.cache_clear()
    calls = _counting_build(monkeypatch)
    assert cli.main(["reproduce", "--json", "--seed", "1"]) == 0
    capsys.readouterr()
    info = classfun._induction_data.cache_info()
    assert info.currsize == info.misses == 15 < info.maxsize
    assert len(calls) == 275


def test_the_store_holds_bounded_bytes():
    # every datum of 39 distinct pairs, more than the store keeps: what
    # stays allocated, the kept pairs and the class tables they built,
    # stays under 4 MB (1.9 MB measured in a fresh process)
    import gc
    import tracemalloc

    from transchrome import classfun

    classfun._induction_data.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        for G, H, lam in _distinct_pairs():
            for key in class_table(G, lam).classes:
                transfer_datum(G, H, key)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    info = classfun._induction_data.cache_info()
    assert info.currsize == info.maxsize
    assert held < 4 * 2 ** 20


def test_forgetting_the_process_stores_clears_both_and_imports_no_layer():
    # what the teardown after every patched test runs (tests/conftest.py)
    import os
    import subprocess

    from transchrome import classfun, perm

    from conftest import forget_process_stores

    classfun._induction_data.cache_clear()  # so the datum below is proven
    transfer_datum(symmetric_group(8), block_subgroup(4, 2), sym_class(["(0 1)"], 2, 1, 3))
    assert classfun._induction_data.cache_info().currsize
    assert perm._type_chain.cache_info().currsize
    forget_process_stores()
    assert classfun._induction_data.cache_info().currsize == 0
    assert perm._type_chain.cache_info().currsize == 0
    # in a process that loaded no layer it clears nothing and loads none
    check = (
        "import sys; from conftest import forget_process_stores; forget_process_stores(); "
        "loaded = sorted(n for n in sys.modules if n.startswith('transchrome')); "
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", check], cwd=os.path.dirname(__file__), check=True)


def test_ideal_trivial_reads_p_after_the_argument_checks(s4_setup):
    # a permutation tuple needs a lam: ideal_trivial raises what
    # transfer_datum raises, and reads p from the lam it checked
    S4, H, lam = s4_setup
    perms = [P("(0 1)", 4)]
    for decide in (transfer_datum, lambda *args: ideal_trivial(*args[:3], False)):
        with pytest.raises(ValueError, match="lam is required"):
            decide(S4, H, perms)
    hc = sym_class(["(0 1)"], 2, 1, 2)
    assert ideal_trivial(S4, H, perms, False, lam) is ideal_trivial(S4, H, hc, False) is True
    assert ideal_trivial(S4, H, [P("(0 1)(2 3)", 4)], False, lam) is False


# -- the class equation, by the exponential formula --


def _class_equation_terms(p, h, k):
    """n! / |C(alpha)| for each class alpha of the table of Sym(n), n = p^k."""
    n = p ** k
    table = class_table(symmetric_group(n), lam_group(p, h, k))
    return [Fraction(math.factorial(n), table.centralizer_order(key)) for key in table.classes]


@pytest.mark.parametrize("p,h,k", [(2, 2, 3), (3, 2, 2), (2, 1, 4), (2, 3, 2), (5, 2, 1), (2, 2, 4)])
def test_centralizer_orders_satisfy_the_class_equation(p, h, k):
    assert sum(_class_equation_terms(p, h, k)) == class_equation_sum(p, h, k)


def test_a_centralizer_order_off_by_p_breaks_the_class_equation():
    terms = _class_equation_terms(2, 2, 3)
    assert sum(terms) == class_equation_sum(2, 2, 3)
    for i in (0, len(terms) // 2, -1):
        mutated = list(terms)
        mutated[i] /= 2  # the order at class i multiplied by p
        assert sum(mutated) != class_equation_sum(2, 2, 3)


@pytest.mark.parametrize("text", ["1e100000000", "-2E+100000000", "1e-100000000",
                                  "3.5e1_000_000_000", "1e%d" % (10 ** 40)])
def test_value_with_a_huge_exponent_is_refused_before_parsing(s4_setup, text):
    # Fraction(text) builds 10**exponent: 1e10000000 took seconds and the
    # time grows superlinearly, so the refusal must come before the parse
    _, H, lam = s4_setup
    ht = class_table(H, lam)
    data = {ht.class_id(key): "1" for key in ht.classes}
    data[ht.class_id(ht.classes[0])] = text
    signal.signal(signal.SIGALRM, lambda signum, frame: pytest.fail("still running after 5 s"))
    signal.alarm(5)
    try:
        with pytest.raises(ResourceLimit, match="exponent"):
            GenClassFunction.from_json_dict(ht, data)
        with pytest.raises(ResourceLimit, match="exponent"):
            GenClassFunction.constant(ht, text)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def test_value_with_an_exponent_at_the_limit_is_read(s4_setup):
    # the exponent guard lets the limit through to the parse; 1e-limit then
    # has a denominator of limit + 1 digits, which the digit bound refuses
    # because it could not be printed, and one digit less is stored
    _, H, lam = s4_setup
    ht = class_table(H, lam)
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    assert _fraction("1e-%d" % limit) == Fraction(1, 10 ** limit)
    with pytest.raises(ResourceLimit, match="class"):
        GenClassFunction.constant(ht, "1e-%d" % limit)
    chi = GenClassFunction.constant(ht, "1e-%d" % (limit - 1))
    assert chi[ht.classes[0]] == Fraction(1, 10 ** (limit - 1))
    assert GenClassFunction.constant(ht, "25e-1")[ht.classes[0]] == Fraction(5, 2)


@pytest.mark.parametrize("digits", [1, 2, 3])
def test_digit_bound_is_the_print_limit(s4_setup, digits):
    # values of limit digits print and are kept, whatever the common
    # denominator; one digit more in lowest terms, as a numerator or as a
    # denominator, is refused naming the class
    _, H, lam = s4_setup
    ht = class_table(H, lam)
    key = ht.classes[-1]
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    widest = 10 ** limit - 1
    for value in (Fraction(widest), Fraction(1, widest), Fraction(-widest, 7)):
        chi = GenClassFunction(ht, {k: value if k == key else digits for k in ht.classes})
        assert chi[key] == value
        assert chi.to_json_dict()[ht.class_id(key)] == str(value)
    for value in (Fraction(widest + 1), Fraction(1, widest + 1), Fraction(-(widest + 1), 7)):
        with pytest.raises(ResourceLimit, match="class %s" % re.escape(ht.class_id(key))):
            GenClassFunction(ht, {k: value if k == key else digits for k in ht.classes})
