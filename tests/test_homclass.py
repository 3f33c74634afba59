import itertools
import math
import timeit

import pytest

from transchrome import homclass
from transchrome.abelian import AbSubgroup, _subgroup_levels
from transchrome.errors import (
    InternalMismatch,
    NotCommuting,
    NotPrime,
    OrderNotPPower,
    ResourceLimit,
)
from transchrome.homclass import (
    HomClass,
    _BlockCosets,
    centralizer_generators,
    centralizer_order,
    classify,
    commuting_tuple_count,
    coset_fiber,
    dual_image,
    enumerate_hom_classes,
    hom_class_count,
    is_isotypic,
    kernel_of_action,
    lam_group,
    make_tuple,
    minimal_level,
    realize,
)
from transchrome.perm import Perm, centralizer, conjugating_element, generate, symmetric_group


def P(text, degree):
    return Perm.from_cycles(text, degree)


def class_of(cycles, p, h, k):
    lam = lam_group(p, h, k)
    perms = [P(c, p ** k) for c in cycles]
    return classify(make_tuple(perms, lam), lam)


def test_enumeration_counts():
    assert len(enumerate_hom_classes(2, 1, 2)) == 4
    for p in (2, 3, 5):
        assert len(enumerate_hom_classes(p, 1, 1)) == 2
    assert len(enumerate_hom_classes(2, 2, 1)) == 4


def test_enumeration_guards():
    with pytest.raises(NotPrime):
        enumerate_hom_classes(4, 1, 1)
    with pytest.raises(ResourceLimit):
        enumerate_hom_classes(2, 1, 5)
    with pytest.raises(ResourceLimit):
        enumerate_hom_classes(2, 8, 2)


@pytest.mark.parametrize("p,h,k", [
    (2, 1, 2), (2, 2, 2), (3, 1, 2), (3, 2, 2), (2, 1, 3), (2, 2, 3),
    (2, 3, 3), (5, 1, 1), (3, 3, 2),
])
def test_hom_class_count_matches_enumeration(p, h, k):
    assert hom_class_count(p, h, k) == len(enumerate_hom_classes(p, h, k))


def test_hom_class_count_values_past_the_enumerated_range():
    assert hom_class_count(2, 2, 4) == 4929
    assert hom_class_count(2, 3, 4) == 984771


def test_hom_class_cap_refuses_before_enumerating(monkeypatch):
    def refuse(lam, max_index):
        raise AssertionError("enumerated kernels for %r" % (lam,))

    monkeypatch.setattr(homclass, "_kernel_subgroups", refuse)
    for p, h, k in [(2, 3, 4), (2, 4, 3), (3, 4, 2)]:
        assert hom_class_count(p, h, k) > homclass.HOM_CLASS_CAP
        with pytest.raises(ResourceLimit, match="hom classes"):
            enumerate_hom_classes.__wrapped__(p, h, k)


def test_hom_class_count_disagreement_is_a_mismatch(monkeypatch):
    monkeypatch.setattr(homclass, "hom_class_count", lambda p, h, k: 5)
    with pytest.raises(InternalMismatch, match="hom classes"):
        enumerate_hom_classes.__wrapped__(2, 1, 2)


def test_point_totals_and_canonical_order():
    for p, h, k in [(2, 1, 2), (2, 2, 1), (3, 1, 2), (2, 2, 2)]:
        classes = enumerate_hom_classes(p, h, k)
        assert len({hc.class_id() for hc in classes}) == len(classes)
        for hc in classes:
            assert hc.points == p ** k
        assert sorted(classes, key=HomClass.sort_key) == list(classes)


@pytest.mark.parametrize("p,h,k", [(2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 1),
                                   (3, 1, 2), (2, 2, 1), (2, 2, 2), (5, 1, 1)])
def test_realize_classify_round_trip(p, h, k):
    for hc in enumerate_hom_classes(p, h, k):
        assert classify(realize(hc), hc.lam) == hc


def test_realize_examples():
    lam = lam_group(2, 1, 1)
    all_fixed = class_of(["e"], 2, 1, 1)
    assert all(s.is_identity() for s in realize(all_fixed).perms)

    regular = class_of(["(0 1)"], 2, 1, 1)
    assert realize(regular).perms[0].cycles() == "(0 1)"

    doubled = class_of(["(0 1)(2 3)"], 2, 1, 2)
    t = realize(doubled)
    assert t.perms[0].cycles() == "(0 1)(2 3)"
    assert classify(t, doubled.lam) == doubled


def test_classify_examples():
    four = class_of(["(0 1 2 3)"], 2, 1, 2)
    (kernel, mult), = four.orbit_types
    assert kernel.order == 1 and mult == 1

    two_two = class_of(["(0 1)(2 3)"], 2, 1, 2)
    (kernel, mult), = two_two.orbit_types
    assert kernel.index == 2 and mult == 2


def test_classify_rejects_bad_tuples():
    lam = lam_group(2, 2, 1)
    with pytest.raises(NotCommuting):
        make_tuple([P("(0 1)", 3), P("(1 2)", 3)], lam)
    lam3 = lam_group(3, 1, 1)
    with pytest.raises(OrderNotPPower):
        make_tuple([P("(0 1)", 3)], lam3)


def test_centralizer_order_formula_vs_exhaustive_small():
    for p, h, k in [(2, 1, 1), (2, 1, 2), (3, 1, 1), (2, 2, 1), (2, 2, 2)]:
        G = symmetric_group(p ** k)
        for hc in enumerate_hom_classes(p, h, k):
            assert centralizer_order(hc) == centralizer(G, realize(hc).perms).order


def test_centralizer_order_formula_vs_exhaustive_degree8():
    G = symmetric_group(8)
    for hc in enumerate_hom_classes(2, 1, 3):
        assert centralizer_order(hc) == centralizer(G, realize(hc).perms).order


def test_centralizer_order_formula_vs_exhaustive_degree8_rank2():
    G = symmetric_group(8)
    for hc in enumerate_hom_classes(2, 2, 3):
        assert centralizer_order(hc) == centralizer(G, realize(hc).perms).order


def test_centralizer_generators_generate_the_centralizer():
    for p, h, k in [(2, 1, 2), (3, 1, 1), (2, 2, 1)]:
        G = symmetric_group(p ** k)
        for hc in enumerate_hom_classes(p, h, k):
            gens = centralizer_generators(hc)
            closed = generate(p ** k, gens)
            assert closed.order == centralizer_order(hc)
            assert closed == centralizer(G, realize(hc).perms)


def test_homclass_on_a_single_point():
    # k = 0: one class, the trivial action on one point
    classes = enumerate_hom_classes(2, 1, 0)
    assert len(classes) == 1
    assert classes[0].points == 1
    t = realize(classes[0])
    assert t.degree == 1
    assert classify(t, classes[0].lam) == classes[0]


def test_counting_identity():
    # sum over classes of |Sym(p^k)| / |C| equals the number of commuting
    # tuples, counted by direct exhaustion
    for p, h, k in [(2, 1, 1), (3, 1, 1), (2, 1, 2), (5, 1, 1), (2, 2, 1),
                    (2, 2, 2), (3, 2, 1), (5, 2, 1)]:
        degree = p ** k
        total = sum(
            math.factorial(degree) // centralizer_order(hc)
            for hc in enumerate_hom_classes(p, h, k)
        )
        assert total == commuting_tuple_count(degree, p, k, h)


@pytest.mark.parametrize("p,h,k", [(2, 1, 2), (3, 1, 1), (5, 1, 1), (2, 2, 1),
                                   (2, 2, 2), (2, 1, 3)])
def test_conjugacy_oracle(p, h, k):
    # conjugating_element succeeds exactly when the class invariants agree
    G = symmetric_group(p ** k)
    classes = enumerate_hom_classes(p, h, k)
    reps = [realize(hc).perms for hc in classes]
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            if i > j:
                continue
            g = conjugating_element(G, list(a), list(b))
            assert (g is not None) == (i == j)
            if g is not None:
                for x, y in zip(a, b):
                    assert g * x * g.inverse() == y


def test_minimal_level_examples():
    assert minimal_level(class_of(["e"], 2, 1, 2)) == 0
    assert minimal_level(class_of(["(0 1 2 3)"], 2, 1, 2)) == 2
    assert minimal_level(class_of(["(0 1)"], 2, 1, 2)) == 1


def test_is_isotypic_examples():
    assert is_isotypic(class_of(["(0 1)(2 3)"], 2, 1, 2))
    assert not is_isotypic(class_of(["(0 1)"], 2, 1, 2))
    assert is_isotypic(class_of(["e"], 2, 1, 2))


def test_dual_image_examples():
    lam = lam_group(2, 1, 2)
    assert dual_image(class_of(["e"], 2, 1, 2)) == AbSubgroup.trivial(lam)
    assert dual_image(class_of(["(0 1 2 3)"], 2, 1, 2)) == AbSubgroup.full(lam)
    half = dual_image(class_of(["(0 1)(2 3)"], 2, 1, 2))
    assert half.elements == ((0,), (2,))


def test_dual_image_order_matches_image():
    for p, h, k in [(2, 1, 2), (2, 2, 1), (3, 1, 2), (2, 2, 2)]:
        for hc in enumerate_hom_classes(p, h, k):
            L = dual_image(hc)
            assert L.order == kernel_of_action(hc).index
            if is_isotypic(hc):
                assert L.order == p ** minimal_level(hc)


def test_dual_image_level_equality_needs_isotypic_reading():
    # the converse fails: a single transposition has |L| = 2 = p^m without
    # being isotypic, so only the isotypic direction is asserted
    hc = class_of(["(0 1)"], 2, 1, 2)
    assert not is_isotypic(hc)
    assert dual_image(hc).order == 2 ** minimal_level(hc)


def test_coset_fiber_examples():
    transposition = class_of(["(0 1)"], 2, 1, 2)
    orbits = coset_fiber(transposition, 1)
    assert len(orbits) == 2
    block_ids = {
        tuple(bc.class_id() for bc in rec.block_classes) for rec in orbits
    }
    # one orbit moves the transposition into the first block, one into the second
    assert len(block_ids) == 2

    four = class_of(["(0 1 2 3)"], 2, 1, 2)
    assert coset_fiber(four, 1) == []

    ident = class_of(["e"], 2, 1, 2)
    orbits = coset_fiber(ident, 1)
    assert len(orbits) == 1
    assert orbits[0].orbit_size == 6
    assert orbits[0].stabilizer_order * 6 == centralizer_order(ident)


def independent_lift_count(p, h, k, m):
    """Oracle for the orbit/lift bijection: ordered tuples of per-block
    classes, grouped by the class they merge into."""
    import itertools as it

    blocks = p ** (k - m)
    lam = lam_group(p, h, k)
    counts = {}
    per_block = _block_class_list(p, h, k, m)
    for combo in it.product(per_block, repeat=blocks):
        merged = {}
        for hc in combo:
            for kernel, mult in hc.orbit_types:
                merged[kernel] = merged.get(kernel, 0) + mult
        orbit_types = tuple(
            sorted(merged.items(), key=lambda kv: (kv[0].index, kv[0].elements))
        )
        full = HomClass(lam, orbit_types)
        counts[full] = counts.get(full, 0) + 1
    return counts


def _block_class_list(p, h, k, m):
    """All classes of lam-actions on p^m points (kernels still inside lam)."""
    lam = lam_group(p, h, k)
    from transchrome.homclass import _kernel_subgroups

    kernels = _kernel_subgroups(lam, p ** m)
    out = []

    def extend(start, remaining, chosen):
        if remaining == 0:
            out.append(HomClass(lam, tuple(chosen)))
            return
        for i in range(start, len(kernels)):
            size = kernels[i].index
            if size > remaining:
                continue
            for mult in range(1, remaining // size + 1):
                chosen.append((kernels[i], mult))
                extend(i + 1, remaining - mult * size, chosen)
                chosen.pop()

    extend(0, p ** m, [])
    return out


@pytest.mark.parametrize("p,h,k,m", [(2, 1, 2, 1), (2, 2, 2, 1), (2, 1, 3, 2),
                                     (2, 2, 3, 2), (3, 1, 2, 1), (3, 2, 2, 1),
                                     (2, 1, 4, 3), (2, 1, 3, 1)])
def test_fiber_orbits_match_independent_lift_count(p, h, k, m):
    lifted = independent_lift_count(p, h, k, m)
    for hc in enumerate_hom_classes(p, h, k):
        orbits = coset_fiber(hc, m)
        assert len(orbits) == lifted.get(hc, 0)
        # distinct blockwise classes across orbits, one per orbit
        keys = {rec.block_classes for rec in orbits}
        assert len(keys) == len(orbits)


def enumerate_block_partitions(degree, block):
    """Every ordered partition of range(degree) into blocks of ``block``
    points, each block sorted: with ``filter_fixed``, the exhaustive oracle
    for the orbit packing in ``_BlockCosets.fixed``."""
    out = []

    def rec(rest, acc):
        if not rest:
            out.append(tuple(acc))
            return
        for combo in itertools.combinations(rest, block):
            acc.append(combo)
            rec(tuple(x for x in rest if x not in combo), acc)
            acc.pop()

    rec(tuple(range(degree)), [])
    return out


def filter_fixed(partitions, alpha):
    """The partitions every permutation in ``alpha`` maps blockwise to itself."""
    return [
        part
        for part in partitions
        if all(tuple(sorted(s[x] for x in blk)) == blk for s in alpha for blk in part)
    ]


def test_fiber_orbit_sizes_sum_to_fixed_partitions():
    for p, h, k in [(2, 1, 2), (2, 1, 3), (3, 1, 2)]:
        partitions = enumerate_block_partitions(p ** k, p ** (k - 1))
        for hc in enumerate_hom_classes(p, h, k):
            alpha = [s.images for s in realize(hc).perms]
            orbits = coset_fiber(hc, k - 1)
            assert sum(rec.orbit_size for rec in orbits) == len(filter_fixed(partitions, alpha))


@pytest.mark.parametrize("p,k,m", [(2, 2, 1), (2, 3, 2), (3, 2, 1), (2, 3, 1)])
def test_orbit_packing_matches_enumerate_and_filter(p, k, m):
    partitions = enumerate_block_partitions(p ** k, p ** m)
    system = _BlockCosets(p ** k, p ** m)
    for h in (1, 2):
        for hc in enumerate_hom_classes(p, h, k):
            alpha = [s.images for s in realize(hc).perms]
            assert system.fixed(alpha) == filter_fixed(partitions, alpha)


@pytest.mark.parametrize("degree,block", [(16, 8), (8, 1)])
def test_orbit_packing_on_the_identity_is_no_slower_than_the_filter(degree, block):
    # every partition is stable, so the packing does the most work it can
    identity = [tuple(range(degree))]
    system = _BlockCosets(degree, block)

    def best(run):
        return min(timeit.repeat(run, number=1, repeat=2))

    packed = best(lambda: system.fixed(identity))
    filtered = best(lambda: filter_fixed(enumerate_block_partitions(degree, block), identity))
    assert system.fixed(identity) == enumerate_block_partitions(degree, block)
    assert packed <= filtered


def test_partition_cap_refuses_before_any_work(monkeypatch):
    from transchrome import homclass

    def refuse(*args):
        raise AssertionError("work started before the partition cap")

    monkeypatch.setattr(homclass, "_orbits", refuse)
    monkeypatch.setattr(homclass, "realize", refuse)
    with pytest.raises(ResourceLimit):
        _BlockCosets(16, 2)
    with pytest.raises(ResourceLimit):
        coset_fiber(class_of(["e"], 2, 1, 4), 1)


@pytest.mark.parametrize("p,h,k", [(2, 1, 2), (2, 2, 2)])
def test_coset_fiber_matches_generic_coset_orbits(p, h, k):
    # the partition-orbit machinery agrees with the exhaustive coset version
    from transchrome.perm import block_subgroup, coset_orbits, fixed_cosets

    G = symmetric_group(p ** k)
    H = block_subgroup(p ** (k - 1), p)
    for hc in enumerate_hom_classes(p, h, k):
        perms = list(realize(hc).perms)
        C = centralizer(G, perms)
        generic = coset_orbits(C, fixed_cosets(G, H, perms))
        fiber = coset_fiber(hc, k - 1)
        assert len(fiber) == len(generic)
        generic_data = sorted(
            (coset.rep.images, stab.order) for coset, stab in generic
        )
        fiber_data = sorted(
            (rec.coset_rep.images, rec.stabilizer_order) for rec in fiber
        )
        assert generic_data == fiber_data


def test_coset_fiber_respects_partition_cap():
    with pytest.raises(ResourceLimit):
        hc = class_of(["e"], 2, 1, 4)
        coset_fiber(hc, 1)


def test_class_id_round_trip_uniqueness():
    seen = set()
    for hc in enumerate_hom_classes(2, 2, 2):
        cid = hc.class_id()
        assert cid not in seen
        seen.add(cid)
        assert cid.startswith("p2.k2.h2:")


def level_filter_kernels(lam, max_index):
    """Oracle: every level of the subgroup lattice, top down, kept when its
    index divides max_index."""
    levels = _subgroup_levels(lam, lam.k * lam.h)
    return [sub for level in reversed(levels) for sub in level if max_index % sub.index == 0]


@pytest.mark.parametrize("p,h,k", [(2, 1, 2), (2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 2, 2),
                                   (3, 1, 3), (5, 1, 2), (2, 4, 1)])
def test_kernels_match_the_level_filter(p, h, k):
    lam = lam_group(p, h, k)
    for j in range(k + 1):
        for max_index in (p ** j, p ** j * (p + 1)):
            assert homclass._kernel_subgroups(lam, max_index) == level_filter_kernels(lam, max_index)


def test_kernels_build_only_the_levels_they_use(monkeypatch):
    tops = []
    real = homclass._subgroup_levels

    def levels(ambient, top):
        tops.append(top)
        return real(ambient, top)

    monkeypatch.setattr(homclass, "_subgroup_levels", levels)
    for p, h, k in [(2, 3, 2), (3, 2, 2), (2, 8, 1)]:
        tops.clear()
        kernels = homclass._kernel_subgroups(lam_group(p, h, k), p ** k)
        assert tops == [k]
        assert max(sub.index for sub in kernels) == p ** k


def test_equal_hom_classes_built_apart_hash_equal():
    first = enumerate_hom_classes.__wrapped__(2, 2, 2)
    second = enumerate_hom_classes.__wrapped__(2, 2, 2)
    for a, b in zip(first, second):
        assert a is not b and a.orbit_types[0][0] is not b.orbit_types[0][0]
        assert a == b
        assert hash(a) == hash(b) == hash((a.lam, a.orbit_types))
        again = classify(realize(a), a.lam)
        assert again == a and hash(again) == hash(a)
    assert len(set(first) | set(second)) == len(first)
