import functools
import itertools
import math
import operator
import timeit

import pytest
from hypothesis import given, settings, strategies as st

from transchrome import classfun, homclass
from transchrome.abelian import AbSubgroup, _subgroup_levels, sub_leq_count
from transchrome.errors import (
    BadParameters,
    InternalMismatch,
    NotCommuting,
    NotPrime,
    OrderNotPPower,
    ResourceLimit,
)
from transchrome.homclass import (
    HOM_CLASS_CAP,
    CommutingTuple,
    HomClass,
    centralizer_order,
    classify,
    coset_fiber,
    dual_image,
    enumerate_hom_classes,
    hom_class_count,
    is_isotypic,
    kernel_of_action,
    lam_group,
    minimal_level,
    realize,
)
from transchrome.perm import (
    INDEX_CAP,
    Perm,
    _BlockCosets,
    _centralizer_generators,
    _commute_images,
    _commuting_tuples,
    _inverse,
    _orbit_shapes,
    _orbit_types,
    _orbits,
    centralizer,
    generate,
    symmetric_group,
    young_index,
)

from oracles import (
    centralizer_generators,
    classify_by_walk,
    closure,
    commuting_tuple_count,
    conjugating_element,
    coset_orbits,
    fixed_cosets,
    full_subgroup,
    kernel_by_walk,
    make_tuple,
    orbit_types_by_isomorphism,
    realize_by_layout,
)


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


def test_classify_caps_the_source_group_before_work(monkeypatch):
    # (Z/2^40)^1 is far above the ambient cap: refused before any orbit
    # kernel is looked for
    def refuse(lam, shape):
        raise AssertionError("looked for an orbit kernel in %r" % (lam,))

    monkeypatch.setattr(homclass, "_orbit_kernel", refuse)
    lam = lam_group(2, 1, 40)
    with pytest.raises(ResourceLimit):
        classify(make_tuple([P("(0 1)", 2)], lam), lam)


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
            closed = closure(p ** k, gens)
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
    assert dual_image(class_of(["(0 1 2 3)"], 2, 1, 2)) == full_subgroup(lam)
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


# the lams of the dual-image identity ann(meet K_i) = sum ann(K_i)
DUAL_IMAGE_LAMS = [(2, 2, 3), (3, 2, 2), (2, 3, 2), (2, 1, 3), (3, 1, 2), (3, 3, 1)]


@pytest.mark.parametrize("p,h,k", DUAL_IMAGE_LAMS)
def test_dual_image_is_the_annihilator_of_the_action_kernel(p, h, k):
    # the span of the kernels' duals against the annihilator solved on the
    # action kernel itself: the same subgroup, with the same generators
    for hc in enumerate_hom_classes(p, h, k):
        got, want = dual_image(hc), kernel_of_action(hc).annihilator()
        assert got == want and got.generators() == want.generators()


def test_dual_images_solve_each_kernel_once(monkeypatch):
    solved = []
    real = AbSubgroup._solve_annihilator

    def solve(self):
        solved.append(self)
        return real(self)

    monkeypatch.setattr(AbSubgroup, "_solve_annihilator", solve)
    classes = enumerate_hom_classes.__wrapped__(2, 2, 3)  # kernels no call has solved
    kernels = {id(kernel): kernel for hc in classes for kernel, _ in hc.orbit_types}
    solved.clear()
    for hc in classes:
        dual_image(hc)
    assert len(kernels) == sub_leq_count(2, 2, 3) == 26
    assert sorted(map(id, solved)) == sorted(kernels)
    for hc in classes:
        dual_image(hc)
    assert len(solved) == 26


def test_dual_image_checks_the_order_of_the_span(monkeypatch):
    hc = class_of(["(0 1 2 3)"], 2, 1, 2)
    monkeypatch.setattr(AbSubgroup, "annihilator", lambda self: AbSubgroup.trivial(self.ambient))
    with pytest.raises(InternalMismatch, match="kernel duals"):
        dual_image(hc)


@pytest.mark.parametrize("p,h,k", [(2, 2, 2), (2, 2, 3), (3, 2, 2)])
def test_trusted_hom_classes_are_the_checked_ones(p, h, k):
    # enumerate_hom_classes and classify build through HomClass._of
    for hc in enumerate_hom_classes(p, h, k):
        checked = HomClass(hc.lam, hc.orbit_types)
        assert checked == hc and hash(checked) == hash(hc) and repr(checked) == repr(hc)
        assert classify(realize(hc), hc.lam) == checked


def test_the_public_hom_class_constructor_keeps_every_check():
    from transchrome.homclass import _kernel_subgroups

    lam = lam_group(2, 2, 2)
    first, second = _kernel_subgroups(lam, 4)[:2]
    foreign = _kernel_subgroups(lam_group(2, 2, 1), 2)[0]
    for orbit_types, message in [
        (((second, 1), (first, 1)), "not canonically sorted"),
        (((first, 1), (first, 1)), "duplicate kernel"),
        (((foreign, 1),), "wrong ambient"),
        (((first, 1), (foreign, 1)), "wrong ambient"),
        (((first, 0),), "multiplicity must be positive"),
    ]:
        with pytest.raises(BadParameters, match=message):
            HomClass(lam, orbit_types)
    assert HomClass(lam, ((first, 1), (second, 2))).points == 1 + 2 * second.index


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
    from transchrome import perm

    def refuse(*args):
        raise AssertionError("work started before the partition cap")

    hc = class_of(["e"], 2, 1, 4)
    # every orbit walk of the block model and of _stable_orbits runs perm._orbits
    monkeypatch.setattr(perm, "_orbits", refuse)
    monkeypatch.setattr(homclass, "realize", refuse)
    with pytest.raises(ResourceLimit):
        _BlockCosets(16, 2)
    with pytest.raises(ResourceLimit):
        coset_fiber(hc, 1)


def walk_block_orbits(degree, fixed, alpha, gens):
    """Oracle: ``[(least partition, orbit size)]`` for the orbits of <gens>
    on the alpha-stable partitions ``fixed``, sorted, found by walking them.

    A generator that maps every orbit of alpha onto itself fixes every
    stable partition and is left out.  A partition moves as its labelling
    l (the block of each point), which c sends to l o c^-1."""

    def labelling(blocks):
        label = [0] * degree
        for j, blk in enumerate(blocks):
            for x in blk:
                label[x] = j
        return tuple(label)

    orbit_of = labelling(_orbits(range(degree), alpha, operator.getitem))
    movers = [c for c in gens if any(orbit_of[y] != i for y, i in zip(c, orbit_of))]
    by_label = {labelling(t): t for t in fixed}
    getters = [operator.itemgetter(*_inverse(c)) for c in movers]
    orbits = _orbits(by_label, getters, lambda get, label: get(label))
    return sorted((min(map(by_label.__getitem__, orbit)), len(orbit)) for orbit in orbits)


@pytest.mark.parametrize("p,h,k", [(2, 1, 2), (2, 2, 2), (2, 1, 3), (2, 2, 3),
                                   (3, 1, 2), (3, 2, 2), (2, 3, 2)])
def test_centralizer_orbits_are_the_walk(p, h, k):
    # the orbits read off the orbit types, led by their least partitions,
    # and the count of stable partitions, against the walk over the listed
    # partitions, for every class at every block level under the cap
    degree = p ** k
    for m in range(k + 1):
        if young_index(degree, p ** m) > INDEX_CAP:
            with pytest.raises(ResourceLimit):
                _BlockCosets(degree, p ** m)
            continue
        system = _BlockCosets(degree, p ** m)
        for hc in enumerate_hom_classes(p, h, k):
            alpha = [s.images for s in realize(hc).perms]
            fixed = system.fixed(alpha)
            walked = walk_block_orbits(degree, fixed, alpha, _centralizer_generators(alpha, degree))
            orbits, count = system.centralizer_orbits(alpha)
            assert orbits == walked
            assert count == len(fixed)


# -- the layout memo: one reading of the centralizer orbits per orbit layout --

RELABEL_CASES = [
    (p, h, k, m)
    for p, h, k in [(2, 1, 3), (2, 2, 3), (3, 2, 2), (2, 3, 2)]
    for m in range(k + 1)
    if young_index(p ** k, p ** m) <= INDEX_CAP
]


@functools.lru_cache(maxsize=None)
def realized_alphas(p, h, k):
    return [tuple(s.images for s in realize(hc).perms) for hc in enumerate_hom_classes(p, h, k)]


def layout_of(alpha, degree):
    """The orbits of <alpha> grouped by shape, as sets: what the layout
    memo keys on, found without its sorted tuples."""
    types = {}
    for orbit, shape in _orbit_shapes(alpha, degree):
        types.setdefault(shape, set()).add(frozenset(orbit))
    return frozenset(map(frozenset, types.values()))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_layout_memo_reads_relabelled_classes_as_the_walk(data):
    # a realized class relabelled by a random permutation has orbits off
    # realize's intervals; its memoized reading, read twice, equals the
    # unmemoized one and the walk over its listed stable partitions
    from transchrome import perm

    p, h, k, m = data.draw(st.sampled_from(RELABEL_CASES))
    degree, block = p ** k, p ** m
    alpha = data.draw(st.sampled_from(realized_alphas(p, h, k)))
    sigma = data.draw(st.permutations(range(degree)))
    relabelled = [perm._conj_images(tuple(sigma), s) for s in alpha]
    system = _BlockCosets(degree, block)
    memo = system.centralizer_orbits(relabelled)
    assert system.centralizer_orbits(relabelled) == memo
    layout = tuple(
        tuple(tuple(sorted(orbit)) for orbit in copies)
        for copies in _orbit_types(relabelled, degree)
    )
    orbits, count = perm._layout_orbits.__wrapped__(degree, block, layout)
    assert memo == (list(orbits), count)
    fixed = system.fixed(relabelled)
    gens = _centralizer_generators(relabelled, degree)
    assert memo == (walk_block_orbits(degree, fixed, relabelled, gens), len(fixed))


def test_layout_memo_holds_one_entry_per_layout():
    # every transfer datum of S8 > S4xS4 at (2,2,3) and S9 > S3^3 at
    # (3,2,2): one miss per distinct layout, and no more entries
    from transchrome import perm
    from transchrome.perm import block_subgroup

    perm._layout_orbits.cache_clear()
    classfun._induction_data.cache_clear()  # a kept datum would read no layout
    layouts = set()
    for p, h, k in [(2, 2, 3), (3, 2, 2)]:
        G, H, lam = symmetric_group(p ** k), block_subgroup(p ** (k - 1), p), lam_group(p, h, k)
        table = classfun.class_table(G, lam)
        for key in table.classes:
            classfun.transfer_datum(G, H, key)
            layouts.add((p ** k, p ** (k - 1), layout_of(table.rep_images(key), p ** k)))
            info = perm._layout_orbits.cache_info()
            assert info.currsize == info.misses == len(layouts) <= info.maxsize
    assert len(layouts) == 22 + 9
    assert perm._layout_orbits.cache_info().hits == 148 + 48 - len(layouts)


def test_a_layout_memo_hit_fills_and_counts_nothing(monkeypatch):
    from transchrome import perm
    from transchrome.perm import block_subgroup

    def refuse(*args):
        raise AssertionError("a memo hit read the layout again")

    cases = []
    for p, h, k in [(2, 2, 3), (3, 2, 2)]:
        system = _BlockCosets(p ** k, p ** (k - 1))
        cases += [(system, alpha) for alpha in realized_alphas(p, h, k)]
    before = [system.centralizer_orbits(alpha) for system, alpha in cases]
    G, H, lam = symmetric_group(8), block_subgroup(4, 2), lam_group(2, 2, 3)
    keys = classfun.class_table(G, lam).classes
    data = [classfun.transfer_datum(G, H, key) for key in keys]
    classfun._induction_data.cache_clear()  # transfer_datum reads each layout again
    monkeypatch.setattr(perm, "_fillings", refuse)
    monkeypatch.setattr(perm, "_stable_partition_count", refuse)
    assert [system.centralizer_orbits(alpha) for system, alpha in cases] == before
    assert [classfun.transfer_datum(G, H, key) for key in keys] == data


def test_block_model_calls_leave_no_reference_cycle():
    # the listing and the orbit reading grow on explicit stacks: with the
    # cyclic collector off, nothing they leave needs it
    import gc

    from transchrome import perm

    cases = []
    for p, h, k in [(2, 2, 3), (3, 2, 2)]:
        for m in range(1, k + 1):
            system = _BlockCosets(p ** k, p ** m)
            cases += [(system, alpha) for alpha in realized_alphas(p, h, k)]
    perm._layout_orbits.cache_clear()
    gc.collect()
    gc.disable()
    try:
        for system, alpha in cases:
            system.fixed(alpha)
            system.centralizer_orbits(alpha)
        assert gc.collect() == 0
    finally:
        gc.enable()


def order_pool(n, cap):
    """The image tuples of Sym(n) whose order divides cap."""
    return [s.images for s in symmetric_group(n).iter_elements() if cap % s.order() == 0]


def test_class_enumerations_leave_no_reference_cycle():
    # the commuting tuples and the hom classes grow on explicit stacks:
    # with the cyclic collector off, nothing they leave needs it
    import gc

    pools = [order_pool(n, cap) for n, cap in [(3, 3), (4, 4), (4, 8)]]
    gc.collect()
    gc.disable()
    try:
        for pool in pools:
            for h in (1, 2):
                list(_commuting_tuples(pool, h))
        for phk in [(2, 2, 2), (3, 1, 2), (2, 1, 3), (3, 2, 1)]:
            enumerate_hom_classes.__wrapped__(*phk)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("n,cap,h", [(3, 3, 2), (4, 4, 2), (4, 8, 3), (4, 2, 0)])
def test_commuting_tuples_come_in_lex_order_of_positions(n, cap, h):
    # ``GenericClassTable.classes`` is their discovery order, and is printed
    pool = order_pool(n, cap)
    want = [
        t for t in itertools.product(pool, repeat=h)
        if all(_commute_images(a, b) for a, b in itertools.combinations(t, 2))
    ]
    assert list(_commuting_tuples(pool, h)) == want


def test_coset_fiber_lists_and_walks_no_stable_partition(monkeypatch):
    from transchrome import perm

    def refuse(*args, **kwargs):
        raise AssertionError("coset_fiber listed or walked the stable partitions")

    levels = [(hc, m) for hc in enumerate_hom_classes(2, 2, 3) for m in range(4)]
    before = [coset_fiber(hc, m) for hc, m in levels]
    monkeypatch.setattr(perm._BlockCosets, "fixed", refuse)
    monkeypatch.setattr(perm, "_orbit_reps", refuse)
    monkeypatch.setattr(perm, "_centralizer_generators", refuse)
    assert [coset_fiber(hc, m) for hc, m in levels] == before


def test_stable_partition_count_is_the_listed_count():
    # orbit sizes that are no p-powers, and blocks some sizes cannot fill
    from transchrome.perm import _stable_partition_count

    for sizes, block, blocks, count in [([1] * 6, 2, 3, 90), ([3, 1, 1, 1], 3, 2, 2),
                                        ([2, 2, 1, 1], 3, 2, 4), ([3, 3], 2, 3, 0),
                                        ([2, 2, 2], 3, 2, 0), ([4], 4, 1, 1)]:
        # one cycle per orbit, on consecutive points
        starts = list(itertools.accumulate(sizes, initial=0))
        alpha = [tuple(
            i + 1 if i + 1 < end else start
            for start, end in zip(starts, starts[1:]) for i in range(start, end)
        )]
        listed = filter_fixed(enumerate_block_partitions(starts[-1], block), alpha)
        assert _stable_partition_count(sizes, block, blocks) == len(listed) == count


@pytest.mark.parametrize("p,h,k", [(2, 1, 2), (2, 2, 2), (2, 1, 3)])
def test_coset_fiber_matches_generic_coset_orbits(p, h, k):
    # the partition-orbit machinery agrees with the exhaustive coset version
    # at every block level m < k
    from transchrome.perm import block_subgroup

    G = symmetric_group(p ** k)
    for hc in enumerate_hom_classes(p, h, k):
        perms = list(realize(hc).perms)
        # the exhaustive centralizer, walked by a few generators: its
        # element list as generators would cost |C| * |cosets| steps
        C = generate(G.degree, centralizer_generators(hc))
        assert C == centralizer(G, perms)
        for m in range(k):
            H = block_subgroup(p ** m, p ** (k - m))
            generic = coset_orbits(C, fixed_cosets(G, H, perms))
            fiber = coset_fiber(hc, m)
            assert len(fiber) == len(generic)
            generic_data = sorted(
                (coset.rep.images, stab.order) for coset, stab in generic
            )
            fiber_data = sorted(
                (rec.coset_rep.images, rec.stabilizer_order) for rec in fiber
            )
            assert generic_data == fiber_data


def test_coset_fiber_refuses_a_level_outside_zero_to_k():
    hc = class_of(["(0 1)"], 2, 1, 2)
    for m in (-1, 3):
        with pytest.raises(BadParameters):
            coset_fiber(hc, m)


@pytest.mark.parametrize("degree,block", [(4, 0), (4, -2), (4, 3), (4, 0.5), (4, 2.0)])
def test_block_cosets_refuse_a_block_size_that_does_not_divide(degree, block):
    with pytest.raises(BadParameters):
        _BlockCosets(degree, block)


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


# (p, h, k) with p^(kh) <= 10^4; enumerate_hom_classes refuses (2, 3, 4)
# (984 771 classes), so its classes are drawn here from its kernels
CLASSIFY_LAMS = [(2, 1, 4), (2, 2, 3), (2, 2, 4), (2, 3, 2), (2, 3, 3), (2, 3, 4),
                 (3, 1, 2), (3, 2, 2), (3, 3, 2), (5, 2, 1), (7, 3, 1), (11, 2, 1), (2, 7, 1)]


def test_the_drawn_lams_include_one_past_the_class_cap():
    assert hom_class_count(2, 3, 4) > HOM_CLASS_CAP
    with pytest.raises(ResourceLimit):
        enumerate_hom_classes(2, 3, 4)


def _random_class(lam, rng):
    """A class of lam on p^k points: orbits lam/K with K drawn from the
    kernels of index at most the points left."""
    kernels = homclass._kernel_subgroups(lam, lam.p ** lam.k)
    remaining, counts = lam.p ** lam.k, {}
    while remaining:
        kernel = rng.choice([K for K in kernels if K.index <= remaining])
        counts[kernel] = counts.get(kernel, 0) + 1
        remaining -= kernel.index
    return HomClass(lam, tuple(sorted(counts.items(), key=lambda kv: homclass._kernel_key(kv[0]))))


def _conjugate(imgs, rng):
    """c s c^-1 for each image tuple s, c a random permutation."""
    n = len(imgs[0])
    c = rng.sample(range(n), n)
    out = []
    for s in imgs:
        conj = [0] * n
        for i, x in enumerate(s):
            conj[c[i]] = c[x]
        out.append(tuple(conj))
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CLASSIFY_LAMS), st.randoms(use_true_random=False))
def test_classify_by_shape_is_the_walk(case, rng):
    lam = lam_group(*case)
    hc = _random_class(lam, rng)
    alpha = _conjugate([s.images for s in realize(hc).perms], rng)
    t = CommutingTuple(len(alpha[0]), tuple(map(Perm, alpha)))
    assert classify(t, lam) == classify_by_walk(t, lam) == hc
    assert classify(alpha, lam) == hc
    # two classes side by side on 2 p^k points
    other = [s.images for s in realize(_random_class(lam, rng)).perms]
    n = len(alpha[0])
    doubled = _conjugate([a + tuple(n + v for v in b) for a, b in zip(alpha, other)], rng)
    t = CommutingTuple(2 * n, tuple(map(Perm, doubled)))
    assert classify(t, lam) == classify_by_walk(t, lam)
    assert classify(t, lam).points == 2 * n


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 1, 2), (2, 2, 2), (2, 1, 3), (2, 2, 3), (3, 1, 2), (3, 2, 2)]),
       st.randoms(use_true_random=False), st.data())
def test_classify_by_shape_is_the_walk_on_fiber_blocks(case, rng, data):
    # coset_fiber classifies the blocks of p^m points of g^-1 alpha g
    lam = lam_group(*case)
    hc = _random_class(lam, rng)
    # Sym(9) over Sym(1)^9 has 9! cosets, past INDEX_CAP
    m = data.draw(st.integers(int(lam.p ** lam.k > 8), lam.k))
    block = lam.p ** m
    alpha = realize(hc).perms
    for orbit in coset_fiber(hc, m):
        g = orbit.coset_rep
        beta = [(~g * s * g).images for s in alpha]
        for j, got in enumerate(orbit.block_classes):
            base = j * block
            local = CommutingTuple(block, tuple(
                Perm(v - base for v in s[base:base + block]) for s in beta
            ))
            assert got == classify_by_walk(local, lam)


def test_the_orbit_kernel_memo_holds_one_entry_per_kernel():
    memo, action = homclass._orbit_kernel, homclass._orbit_action
    assert memo.cache_info().maxsize == action.cache_info().maxsize == 1024
    # lam = (Z/2)^h on two points: one tuple per kernel, 2^h of them, so
    # h = 1..10 asks for 2046 entries, past the bound
    for h in range(1, 11):
        lam = lam_group(2, h, 1)
        for mask in range(2 ** h):
            imgs = tuple((1, 0) if mask >> i & 1 else (0, 1) for i in range(h))
            got = classify(imgs, lam)
            if mask % 97 == 0:
                t = CommutingTuple(2, tuple(map(Perm, imgs)))
                assert got == classify_by_walk(t, lam)
            assert realize(got).perms == tuple(map(Perm, imgs))
            assert memo.cache_info().currsize <= memo.cache_info().maxsize
            assert action.cache_info().currsize <= action.cache_info().maxsize
    assert memo.cache_info().currsize == memo.cache_info().maxsize
    assert action.cache_info().currsize == action.cache_info().maxsize
    memo.cache_clear()
    classes = enumerate_hom_classes(2, 2, 3)
    for hc in classes:
        assert classify(realize(hc), hc.lam) == hc
    assert memo.cache_info().currsize == sub_leq_count(2, 2, 3) == 26
    rng = __import__("random").Random(3)
    for hc in classes:
        assert classify(_conjugate([s.images for s in realize(hc).perms], rng), hc.lam) == hc
    assert memo.cache_info().currsize == 26


def test_a_memo_hit_walks_nothing_over_lam(monkeypatch):
    classes = enumerate_hom_classes(3, 2, 2)
    for hc in classes:
        classify(realize(hc), hc.lam)

    def refuse(*args):
        raise AssertionError("spanned a kernel on a memo hit")

    monkeypatch.setattr(AbSubgroup, "span", refuse)
    rng = __import__("random").Random(5)
    for hc in classes:
        assert classify(_conjugate([s.images for s in realize(hc).perms], rng), hc.lam) == hc


def test_the_orbit_kernel_is_the_walk_over_lam_on_every_shape():
    # every kernel of index at most p^k, as one orbit of realize: its shape
    # gives the kernel back, as the walk of all of lam finds it
    for case in CLASSIFY_LAMS:
        lam = lam_group(*case)
        for kernel in homclass._kernel_subgroups(lam, lam.p ** lam.k):
            imgs = [s.images for s in realize(HomClass(lam, ((kernel, 1),))).perms]
            (_, shape), = _orbit_shapes(imgs, kernel.index)
            assert homclass._orbit_kernel.__wrapped__(lam, shape) == kernel_by_walk(lam, shape) == kernel


def test_a_span_short_of_a_schreier_element_is_a_mismatch(monkeypatch):
    # on a fixed point every unit vector is a Schreier element, and on two
    # points of (Z/2)^2 swapped by e_0 the kernel is spanned by e_1 alone
    real = AbSubgroup.span.__func__

    def short(cls, ambient, gens):
        return real(cls, ambient, [g for g in gens if g != gens[-1]])

    for lam, shape in [(lam_group(2, 2, 1), ((0,), (0,))), (lam_group(3, 1, 2), ((0,),)),
                       (lam_group(2, 2, 1), ((1, 0), (0, 1)))]:
        assert homclass._orbit_kernel.__wrapped__(lam, shape) == kernel_by_walk(lam, shape)
        monkeypatch.setattr(AbSubgroup, "span", classmethod(short))
        with pytest.raises(InternalMismatch, match="Schreier"):
            homclass._orbit_kernel.__wrapped__(lam, shape)
        monkeypatch.undo()


@pytest.mark.parametrize("p,h,k", [(2, 2, 3), (3, 2, 2), (2, 3, 2), (2, 1, 4)])
def test_realize_is_the_table_layout(p, h, k):
    homclass._orbit_action.cache_clear()
    for hc in enumerate_hom_classes(p, h, k):
        assert realize(hc) == realize_by_layout(hc)


def _intertwined(imgs, copies):
    """Whether matching each orbit with the first of its type position by
    position commutes with every generator."""
    first = copies[0]
    for orbit in copies:
        phi = dict(zip(first, orbit))
        if any(phi[s[x]] != s[phi[x]] for s in imgs for x in first):
            return False
    return True


_ANY_TUPLE = st.integers(1, 7).flatmap(
    lambda n: st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=3)
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    _ANY_TUPLE,
    st.tuples(st.sampled_from([(2, 1, 2), (2, 2, 2), (2, 1, 3), (2, 2, 3), (3, 1, 2), (3, 2, 2)]),
              st.randoms(use_true_random=False)).map(
        lambda drawn: list(_conjugate(
            [s.images for s in realize(_random_class(lam_group(*drawn[0]), drawn[1])).perms],
            drawn[1],
        ))
    ),
))
def test_orbit_types_group_as_the_pairwise_isomorphism_test(imgs):
    degree = len(imgs[0])
    types = _orbit_types(imgs, degree)
    paired = orbit_types_by_isomorphism(imgs, degree)
    assert types == [[orbit for orbit, _ in copies] for copies in paired]
    for copies, pairs in zip(types, paired):
        assert [dict(zip(copies[0], orbit)) for orbit in copies] == [phi for _, phi in pairs]
        assert _intertwined(imgs, copies)


def _old_key_of_images(table, imgs):
    """What the symmetric class table answered before it skipped Perm and
    CommutingTuple: the checked Perms, classified by the walk."""
    perms = tuple(Perm(t) for t in imgs)
    return classify_by_walk(CommutingTuple(table.degree, perms), table.lam)


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the type is compared, not the message
        return type(exc)


# mostly permutations of the table's four points, some of them commuting,
# one of order 3; then other degrees, non-permutations and a bool image
_FOUR = st.sampled_from([(1, 0, 3, 2), (1, 2, 3, 0), (1, 0, 2, 3), (2, 3, 0, 1),
                         (1, 2, 0, 3), (0, 1, 2, 3), (0, 1, 3, 2)])
_IMAGE = st.one_of(
    _FOUR, _FOUR, _FOUR, st.permutations(range(4)),
    st.integers(3, 5).flatmap(lambda n: st.permutations(range(n))),
    st.lists(st.integers(-1, 4), min_size=3, max_size=5),
    st.just((0, True, 2, 3)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_IMAGE, min_size=0, max_size=3))
def test_key_of_images_checks_as_perm_and_commuting_tuple_did(imgs):
    table = classfun.class_table(symmetric_group(4), lam_group(2, 2, 2))
    imgs = tuple(tuple(s) for s in imgs)
    assert _outcome(table.key_of_images, imgs) == _outcome(_old_key_of_images, table, imgs)


@pytest.mark.parametrize("imgs,error", [
    (((1, 1, 2, 3), (0, 1, 2, 3)), ValueError),
    (((1, 0, 2), (0, 1, 2)), BadParameters),
    (((1, 0, 2, 3), (0, 2, 1, 3)), NotCommuting),
    (((1, 0, 2, 3),), BadParameters),
    (((1, 2, 0, 3), (0, 1, 2, 3)), OrderNotPPower),
])
def test_key_of_images_refusals(imgs, error):
    table = classfun.class_table(symmetric_group(4), lam_group(2, 2, 2))
    with pytest.raises(error):
        table.key_of_images(imgs)
