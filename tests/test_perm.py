import functools
import itertools
import math
import types

import pytest
from hypothesis import given, settings, strategies as st

from transchrome import perm
from transchrome.errors import (
    ActionNotClosed,
    DegreeMismatch,
    InternalMismatch,
    NotInGroup,
    NotSubgroup,
    ResourceLimit,
)
from transchrome.perm import (
    Perm,
    PermGroup,
    StabilizerChain,
    YoungSubgroup,
    _BlockCosets,
    _compose,
    block_subgroup,
    centralizer,
    generate,
    symmetric_group,
)

from oracles import (
    centralizer_factors,
    closure,
    conjugating_element,
    coset_orbits,
    cycle_lists,
    fixed_cosets,
    left_cosets,
)


def P(text, degree):
    return Perm.from_cycles(text, degree)


@st.composite
def perm_triples(draw, max_degree=6):
    n = draw(st.integers(min_value=1, max_value=max_degree))
    make = lambda: Perm(draw(st.permutations(list(range(n)))))
    return make(), make(), make()


@settings(deadline=None)
@given(perm_triples())
def test_group_axioms_on_random_perms(triple):
    a, b, c = triple
    ident = Perm.identity(a.degree)
    assert a * a.inverse() == ident
    assert a.inverse() * a == ident
    assert (a * b) * c == a * (b * c)
    assert (a * b).inverse() == b.inverse() * a.inverse()


@settings(deadline=None)
@given(perm_triples())
def test_cycle_notation_round_trip(triple):
    a, _, _ = triple
    assert Perm.from_cycles(a.cycles(), a.degree) == a


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=9).flatmap(lambda n: st.permutations(range(n))))
def test_cycles_are_the_cycle_walk(images):
    # the orbit walk prints the cycles the plain cycle walk finds
    cycs = cycle_lists(images)
    want = "".join("(" + " ".join(map(str, c)) + ")" for c in cycs) if cycs else "e"
    assert Perm(images).cycles() == want


def test_perm_validation():
    with pytest.raises(ValueError):
        Perm((0, 0, 1))
    with pytest.raises(DegreeMismatch):
        P("(0 1)", 3) * P("(0 1)", 4)
    # cycles sharing a point describe no permutation; the message names it
    with pytest.raises(ValueError, match="point 1 appears in two cycles"):
        P("(0 1)(1 2)", 4)
    with pytest.raises(ValueError, match="point 3 appears in two cycles"):
        P("(0 3)(1 2)(3 4)", 5)


def test_perm_order_and_power():
    four = P("(0 1 2 3)", 4)
    assert four.order() == 4
    assert four ** 4 == Perm.identity(4)
    assert four ** -1 == four.inverse()
    assert P("(0 1)(2 3)", 4).order() == 2


def test_generate_symmetric_group():
    g = generate(4, [P("(0 1)", 4), P("(0 1 2 3)", 4)])
    assert g.order == 24
    assert g == symmetric_group(4)


def test_generate_trivial_and_klein():
    assert generate(4, []).order == 1
    assert generate(4, [P("(0 1)", 4), P("(2 3)", 4)]).order == 4


def test_generate_respects_cap(monkeypatch):
    gens = [P("(0 1)", 5), P("(0 1 2 3 4)", 5)]
    monkeypatch.setattr(perm, "MAX_ELEMENTS", 50)
    with pytest.raises(ResourceLimit, match="closure exceeds cap of 50 elements"):
        generate(5, gens)


def test_generate_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        generate(4, [P("(0 1)", 3)])


def test_generate_refuses_before_it_lists(monkeypatch):
    # Sym(10) has 10! > 10^6 elements: the chain's order refuses it, and
    # no element is listed
    def refuse(self):
        raise AssertionError("listed the elements of an over-cap group")

    monkeypatch.setattr(StabilizerChain, "elements", refuse)
    with pytest.raises(ResourceLimit, match="closure exceeds cap of 1000000 elements"):
        generate(10, [P("(0 1)", 10), P("(0 1 2 3 4 5 6 7 8 9)", 10)])


def test_centralizer_examples():
    S4 = symmetric_group(4)
    d8 = centralizer(S4, [P("(0 1)(2 3)", 4)])
    assert d8.order == 8
    assert not d8.is_abelian()
    assert d8.element_order_counts() == {1: 1, 2: 5, 4: 2}

    z4 = centralizer(S4, [P("(0 1 2 3)", 4)])
    assert z4.order == 4
    assert z4.element_order_counts()[4] == 2

    assert centralizer(S4, [Perm.identity(4)]) == S4

    with pytest.raises(NotInGroup):
        centralizer(generate(4, [P("(0 1)", 4)]), [P("(2 3)", 4)])


def test_centralizer_is_closed():
    S4 = symmetric_group(4)
    c = centralizer(S4, [P("(0 1)(2 3)", 4)])
    regenerated = generate(4, list(c.elements))
    assert regenerated.order == c.order
    assert 24 % c.order == 0


def brute_cosets(G, H):
    seen = set()
    for g in G:
        seen.add(frozenset((g * h).images for h in H))
    return seen


def test_left_cosets_against_brute_force():
    S4 = symmetric_group(4)
    H = block_subgroup(2, 2)
    cosets = left_cosets(S4, H)
    assert len(cosets) == 6
    brute = brute_cosets(S4, H)
    assert len(brute) == 6
    # canonical representative is the minimum of its coset
    for c in cosets:
        block = frozenset((c.rep * h).images for h in H)
        assert c.rep.images == min(block)


def test_left_cosets_trivial_and_alternating():
    S3 = symmetric_group(3)
    A3 = generate(3, [P("(0 1 2)", 3)])
    assert len(left_cosets(S3, A3)) == 2
    assert len(left_cosets(A3, A3)) == 1
    with pytest.raises(NotSubgroup):
        left_cosets(A3, S3)


def test_fixed_cosets_examples():
    S4 = symmetric_group(4)
    H = block_subgroup(2, 2)
    fixed = fixed_cosets(S4, H, [P("(0 1)(2 3)", 4)])
    assert len(fixed) == 2
    # independent check over the six ordered 2+2 block partitions
    s = P("(0 1)(2 3)", 4)
    count = 0
    partitions = [
        ((0, 1), (2, 3)), ((2, 3), (0, 1)),
        ((0, 2), (1, 3)), ((1, 3), (0, 2)),
        ((0, 3), (1, 2)), ((1, 2), (0, 3)),
    ]
    for part in partitions:
        if all(tuple(sorted(s(x) for x in blk)) == blk for blk in part):
            count += 1
    assert count == 2

    assert fixed_cosets(S4, H, [Perm.identity(4)]) == left_cosets(S4, H)


def test_fixed_cosets_p_cycle_none():
    for p in (2, 3, 5):
        Sp = symmetric_group(p)
        E = generate(p, [])
        pcycle = Perm(tuple(range(1, p)) + (0,))
        assert fixed_cosets(Sp, E, [pcycle]) == []


def test_coset_orbits_orbit_stabilizer():
    S4 = symmetric_group(4)
    H = block_subgroup(2, 2)
    d8 = centralizer(S4, [P("(0 1)(2 3)", 4)])
    fixed = fixed_cosets(S4, H, [P("(0 1)(2 3)", 4)])
    orbits = coset_orbits(d8, fixed)
    assert len(orbits) == 1
    rep, stab = orbits[0]
    assert stab.order == 4
    assert 2 * stab.order == d8.order  # |orbit| * |stab| = |C|

    all_cosets = left_cosets(S4, H)
    orbits = coset_orbits(S4, all_cosets)
    assert len(orbits) == 1
    rep, stab = orbits[0]
    assert stab.order == H.order
    assert set(stab.elements) == set(H.elements)


def test_coset_orbits_trivial_group():
    S4 = symmetric_group(4)
    H = block_subgroup(2, 2)
    cosets = left_cosets(S4, H)
    trivial = generate(4, [])
    orbits = coset_orbits(trivial, cosets)
    assert len(orbits) == len(cosets)


def test_coset_orbits_action_not_closed():
    S4 = symmetric_group(4)
    H = block_subgroup(2, 2)
    cosets = left_cosets(S4, H)
    with pytest.raises(ActionNotClosed):
        coset_orbits(S4, cosets[:2])


def _scanned_stabilizer(C, coset):
    """The stabilizer of gH in C by testing every element: c fixes gH
    exactly when g^-1 c g is in H."""
    g, H = coset.rep, coset.subgroup
    ginv = g.inverse()
    return {c.images for c in C.iter_elements() if ginv * c * g in H}


@pytest.mark.parametrize("degree,H,alpha", [
    (4, block_subgroup(2, 2), ["(0 1)(2 3)"]),
    (4, generate(4, [P("(0 1 2 3)", 4)]), ["(0 1)(2 3)"]),
    (4, generate(4, [P("(0 1 2 3)", 4)]), []),
    (6, block_subgroup(3, 2), ["(0 1 2)"]),
    (6, block_subgroup(2, 3), ["(0 1)(2 3)(4 5)"]),
    (8, block_subgroup(4, 2), ["e"]),
])
def test_coset_orbit_stabilizers_are_the_element_scan(degree, H, alpha):
    G = symmetric_group(degree)
    perms = [P(c, degree) for c in alpha]
    C = centralizer(G, perms)
    cosets = fixed_cosets(G, H, perms) if perms else left_cosets(G, H)
    orbits = coset_orbits(C, cosets)
    assert sum(C.order // stab.order for _, stab in orbits) == len(cosets)
    for coset, stab in orbits:
        assert {s.images for s in stab.elements} == _scanned_stabilizer(C, coset)


def test_coset_orbit_stabilizer_of_the_wrong_order_is_a_mismatch(monkeypatch):
    real = perm._chain_generators

    def dropped(*args):
        gens, order = real(*args)
        return gens[:-1], order

    S4, H = symmetric_group(4), block_subgroup(2, 2)
    monkeypatch.setattr(perm, "_chain_generators", dropped)
    with pytest.raises(InternalMismatch, match="stabilizer of order"):
        coset_orbits(S4, left_cosets(S4, H))


def test_coset_orbit_generator_moving_its_coset_is_a_mismatch(monkeypatch):
    real = perm._chain_generators

    def with_a_mover(*args):
        gens, order = real(*args)
        return gens + [P("(1 2)", 4).images], order

    S4, H = symmetric_group(4), block_subgroup(2, 2)
    monkeypatch.setattr(perm, "_chain_generators", with_a_mover)
    with pytest.raises(InternalMismatch, match="moves its coset"):
        coset_orbits(S4, left_cosets(S4, H))


def test_orbit_reps_sizes_and_closure():
    from transchrome.perm import _orbit_reps

    def act(g, x):
        return g[x]

    c = P("(0 1 2)(3 4)", 6).images
    assert _orbit_reps(range(6), [c], act) == [(0, 3), (3, 2), (5, 1)]
    assert _orbit_reps([], [c], act) == []
    with pytest.raises(ActionNotClosed):
        _orbit_reps([0, 1], [c], act)


def test_orbit_sizes_partition_cosets():
    S4 = symmetric_group(4)
    H = generate(4, [P("(0 1 2 3)", 4)])
    cosets = left_cosets(S4, H)
    d8 = centralizer(S4, [P("(0 1)(2 3)", 4)])
    orbits = coset_orbits(d8, cosets)
    assert sum(d8.order // stab.order for _, stab in orbits) == len(cosets)
    for _, stab in orbits:
        assert d8.order % stab.order == 0


def test_fixed_cosets_are_cosets_with_full_stabilizer():
    # a coset is fixed by S exactly when its stabilizer under <S> is all of <S>
    S4 = symmetric_group(4)
    H = block_subgroup(2, 2)
    for cycles in ("(0 1)(2 3)", "(0 1)", "(0 1 2 3)"):
        s = P(cycles, 4)
        span = generate(4, [s])
        fixed = {c.rep.images for c in fixed_cosets(S4, H, [s])}
        full_stab = {
            rep.rep.images
            for rep, stab in coset_orbits(span, left_cosets(S4, H))
            if stab.order == span.order
        }
        assert fixed == full_stab


def test_conjugating_element():
    S4 = symmetric_group(4)
    a = [P("(0 1)", 4)]
    b = [P("(2 3)", 4)]
    g = conjugating_element(S4, a, b)
    assert g is not None
    assert g * a[0] * g.inverse() == b[0]

    assert conjugating_element(S4, a, a) is not None

    assert conjugating_element(S4, a, [P("(0 1)(2 3)", 4)]) is None

    with pytest.raises(NotInGroup):
        conjugating_element(generate(4, [P("(0 1)", 4)]), a, b)


def test_conjugating_element_verifies_tuples():
    S4 = symmetric_group(4)
    a = [P("(0 1)", 4), P("(2 3)", 4)]
    b = [P("(2 3)", 4), P("(0 1)", 4)]
    g = conjugating_element(S4, a, b)
    assert g is not None
    for x, y in zip(a, b):
        assert g * x * g.inverse() == y


def test_block_subgroup_structure():
    H = block_subgroup(2, 2)
    assert H.order == 4
    assert H.is_abelian()
    H2 = block_subgroup(3, 3)
    assert H2.order == 216
    assert H2.degree == 9
    assert all(h.images[0] < 3 for h in H2)


def test_symmetric_group_lazy_membership():
    S8 = symmetric_group(8)
    assert S8.order == 40320
    assert P("(0 7)", 8) in S8
    assert S8.is_full_symmetric()


def test_coset_equality_and_membership():
    S4 = symmetric_group(4)
    H = block_subgroup(2, 2)
    cosets = left_cosets(S4, H)
    c = cosets[1]
    assert c.rep in c
    assert all((c.rep * h) in c for h in H)
    assert cosets[0] != cosets[1]


# -- Young subgroups read by their shape --

SHAPES = [(1, 4), (2, 2), (2, 3), (3, 3), (4, 2)] + [(n, 1) for n in range(1, 6)]


def eager_young_elements(b, c):
    """Oracle: the sorted product of the blockwise symmetric groups."""
    per_block = [
        [tuple(lo + v for v in t) for t in itertools.permutations(range(b))]
        for lo in range(0, b * c, b)
    ]
    return sorted(tuple(itertools.chain(*combo)) for combo in itertools.product(*per_block))


@pytest.mark.parametrize("b,c", SHAPES)
def test_young_elements_are_the_eager_product(b, c):
    H = block_subgroup(b, c)
    lazy = [g.images for g in H.iter_elements()]
    assert lazy == eager_young_elements(b, c)
    assert [g.images for g in H.elements] == lazy
    assert H.order == len(lazy)
    assert H.is_full_symmetric() == (c == 1)


@pytest.mark.parametrize("n", [4, 6])
def test_young_membership_is_the_element_set(n):
    shapes = [(b, n // b) for b in range(1, n + 1) if n % b == 0]
    for b, c in shapes:
        H = block_subgroup(b, c)
        members = set(eager_young_elements(b, c))
        for t in itertools.permutations(range(n)):
            assert (Perm(t) in H) == (t in members)
        assert P("(0 1)", n + 1) not in H


def test_symmetric_group_is_the_one_block_young_subgroup():
    S4 = symmetric_group(4)
    assert isinstance(S4, YoungSubgroup)
    assert (S4.block_size, S4.blocks) == (4, 1)
    assert S4 == block_subgroup(4, 1)
    assert S4 == PermGroup(4, S4.elements)
    assert block_subgroup(2, 2) != PermGroup(4, S4.elements)
    assert block_subgroup(2, 2) == generate(4, [P("(0 1)", 4), P("(2 3)", 4)])


def test_young_generators():
    # the embedded (lo lo+1) and block cycle of every block, in block order
    assert symmetric_group(1).generators == ()
    assert symmetric_group(2).generators == (P("(0 1)", 2),)
    assert symmetric_group(4).generators == (P("(0 1)", 4), P("(0 1 2 3)", 4))
    assert block_subgroup(2, 2).generators == (P("(0 1)", 4), P("(2 3)", 4))
    assert block_subgroup(3, 2).generators == (
        P("(0 1)", 6), P("(0 1 2)", 6), P("(3 4)", 6), P("(3 4 5)", 6),
    )
    assert block_subgroup(1, 3).generators == ()
    for b, c in SHAPES:
        H = block_subgroup(b, c)
        assert generate(H.degree, H.generators).order == H.order


def _refuse_to_list(monkeypatch):
    """Make every permutation that ``perm`` lists off ``itertools`` an
    AssertionError, so a listing that the element cap should have refused
    fails at once instead of running for minutes."""
    def refuse(*args):
        raise AssertionError("listed the elements of an over-cap group")

    monkeypatch.setattr(perm, "itertools", types.SimpleNamespace(
        **{**vars(itertools), "permutations": refuse}
    ))


def test_element_cap_checked_where_a_group_is_listed(monkeypatch):
    # 10!, 24^5, 11! and 12! are above the cap: the groups build, and every
    # listing of them is refused before its first element, where the scan
    # of Sym(11) alone would run for minutes
    _refuse_to_list(monkeypatch)
    for b, c, H in ((10, 1, block_subgroup(10, 1)), (4, 5, block_subgroup(4, 5)),
                    (11, 1, symmetric_group(11)), (12, 1, symmetric_group(12))):
        assert (H.degree, H.order) == (b * c, math.factorial(b) ** c)
        message = r"Sym\(%d\)\^%d exceeds cap of 1000000 elements" % (b, c)
        with pytest.raises(ResourceLimit, match=message):
            H.elements
        with pytest.raises(ResourceLimit, match=message):
            H.iter_elements()
        with pytest.raises(ResourceLimit, match=message):
            centralizer(H, [Perm.identity(H.degree)])
        with pytest.raises(ResourceLimit, match=message):
            perm._coset_table(H, PermGroup(H.degree, [Perm.identity(H.degree)]))


@pytest.mark.parametrize("b,c,p,k", [(2, 2, 2, 2), (4, 2, 2, 3), (3, 3, 3, 2), (1, 4, 2, 2)])
def test_blockwise_centralizer_is_the_scan(b, c, p, k):
    from transchrome.classfun import class_table
    from transchrome.homclass import lam_group

    H = block_subgroup(b, c)
    explicit = PermGroup(H.degree, H.elements)
    for h in (1, 2):
        table = class_table(H, lam_group(p, h, k))
        for key in table.classes:
            beta = [Perm(s) for s in table.rep_images(key)]
            scan = [g.images for g in centralizer(explicit, beta).elements]
            assert [g.images for g in centralizer(H, beta).elements] == scan
            # one factor per block, each closed, multiplying out to the scan
            factors = centralizer_factors(H, beta)
            assert len(factors) == c
            for factor in factors:
                members = set(factor)
                assert all(_compose(x, y) in members for x in factor for y in factor)
            product = [
                functools.reduce(_compose, combo) for combo in itertools.product(*factors)
            ]
            assert sorted(product) == scan
            assert centralizer_factors(explicit, beta) == [scan]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_stabilizer_chain_matches_the_closure(data):
    # order and sifting membership against the closure, on random
    # generating sets of degree <= 7
    n = data.draw(st.integers(min_value=1, max_value=7))
    gens = [tuple(g) for g in data.draw(st.lists(st.permutations(range(n)), max_size=4))]
    closed_group = closure(n, [Perm(g) for g in gens])
    closed = {g.images for g in closed_group}
    chain = StabilizerChain(n, gens)
    assert chain.order == len(closed)
    assert sorted(chain.elements()) == sorted(closed)
    assert generate(n, [Perm(g) for g in gens]).elements == closed_group.elements
    probes = [tuple(t) for t in data.draw(st.lists(st.permutations(range(n)), max_size=30))]
    for t in itertools.chain(sorted(closed), probes):
        assert (t in chain) == (t in closed)


def test_stabilizer_chain_of_large_symmetric_groups():
    # Sym(n) from a transposition and an n-cycle, far beyond any closure
    for n in (9, 12, 16):
        swap = (1, 0) + tuple(range(2, n))
        cycle = tuple(range(1, n)) + (0,)
        chain = StabilizerChain(n, [swap, cycle])
        assert chain.order == math.factorial(n)
        assert tuple(reversed(range(n))) in chain
        assert not chain.add(tuple(reversed(range(n))))
    even = StabilizerChain(5, [(1, 2, 0, 3, 4), (0, 2, 3, 1, 4), (0, 1, 3, 4, 2)])
    assert even.order == 60
    assert (1, 0, 2, 3, 4) not in even
    assert even.add((1, 0, 2, 3, 4)) and even.order == 120


def test_centralizer_carries_generators():
    # the greedy generators of the scan generate the scanned centralizer
    S4 = symmetric_group(4)
    for H, cycles in [(S4, ["(0 1)(2 3)"]), (S4, ["e"]), (S4, ["(0 1 2 3)"]),
                      (block_subgroup(3, 3), ["(0 1 2)(6 7 8)"]),
                      (block_subgroup(4, 2), ["(0 1)", "(2 3)"])]:
        C = centralizer(H, [P(c, H.degree) for c in cycles])
        assert C.generators
        assert len(C.generators) < C.order
        closed = {g.images for g in closure(H.degree, C.generators)}
        assert closed == {g.images for g in C}
        assert StabilizerChain(H.degree, [g.images for g in C.generators]).order == C.order


def test_blockwise_centralizer_rejects_a_tuple_leaving_a_block():
    with pytest.raises(NotInGroup):
        centralizer(block_subgroup(2, 2), [P("(1 2)", 4)])
    with pytest.raises(NotInGroup):
        centralizer(block_subgroup(3, 3), [Perm.identity(9), P("(0 3)", 9)])


@pytest.fixture
def multi_block_elements_refused(monkeypatch):
    enumerate_lazily = YoungSubgroup.iter_elements

    def guarded(self):
        if self.blocks > 1:
            raise AssertionError("enumerated the elements of %r" % self)
        return enumerate_lazily(self)

    monkeypatch.setattr(YoungSubgroup, "iter_elements", guarded)


def test_decompose_never_builds_the_young_subgroup(multi_block_elements_refused):
    from transchrome.decomp import decompose, report_to_dict, verify_triangle

    report = decompose(2, 3, 1, 3)
    assert verify_triangle(report)
    assert report_to_dict(report)["rank_sum"] == report.total_degree


def test_transfer_datum_never_builds_the_young_subgroup(multi_block_elements_refused):
    from transchrome import classfun
    from transchrome.classfun import class_table, transfer_datum
    from transchrome.homclass import lam_group

    classfun._induction_data.cache_clear()  # a kept datum would build nothing
    S8, H = symmetric_group(8), block_subgroup(4, 2)
    for h in (1, 2):
        lam = lam_group(2, h, 3)
        for key in class_table(S8, lam).classes:
            datum = transfer_datum(S8, H, key)
            assert sum(rec.index for rec in datum.records) == datum.fixed_count


@pytest.mark.parametrize("degree,block", [(4, 1), (4, 2), (6, 2), (6, 3)])
def test_block_fixes_is_the_sorted_image_partition(degree, block):
    # ``fixes`` reads each block's point set; the oracle sorts the image of
    # each block, the partition of c*gH, and compares: they agree on every
    # element and every ordered partition
    system = _BlockCosets(degree, block)
    tokens = system.fixed((tuple(range(degree)),))
    for c in itertools.permutations(range(degree)):
        for token in tokens:
            moved = tuple(tuple(sorted(c[x] for x in blk)) for blk in token)
            assert system.fixes(c, token) == (moved == token)
