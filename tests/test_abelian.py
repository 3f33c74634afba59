import itertools
import signal

import pytest
from hypothesis import given, settings, strategies as st

from transchrome import abelian, accept, checks
from transchrome.abelian import (
    Ambient,
    AbSubgroup,
    annihilator,
    count_sublattices,
    enumerate_subgroups,
    sub_leq_count,
    subgroups_of_ambient,
)
from transchrome.errors import BadParameters, InternalMismatch, NotPrime, ResourceLimit

from oracles import (
    ambient_add,
    ambient_elements,
    ambient_keys,
    ambient_scale,
    ambient_zero,
    full_subgroup,
    is_closed,
)


def brute_force_subgroups(ambient, order):
    """Oracle: closures of all generating pairs/triples, deduplicated."""
    elems = ambient_elements(ambient)
    found = set()
    for r in range(1, 4):
        for gens in itertools.combinations(elems, r):
            sub = AbSubgroup.span(ambient, gens)
            if sub.order == order:
                found.add(sub.elements)
    return found


def span_extension_levels(ambient, top=None):
    """Oracle: the lattice levels 0..top (default k*h) built by re-spanning
    generators plus one element, scanning the whole ambient group for
    candidates."""
    p = ambient.p
    top = ambient.k * ambient.h if top is None else min(top, ambient.k * ambient.h)
    multiples = [
        (ambient._pack(x), x, ambient_scale(ambient, p, x)) for x in ambient_elements(ambient)
    ]
    levels = [(AbSubgroup.trivial(ambient),)]
    for _ in range(top):
        found = {}
        for sub in levels[-1]:
            members = set(sub.elements)
            candidates = [(key, x) for key, x, px in multiples if px in members and x not in members]
            covered = set()
            for key, x in candidates:
                if key in covered:
                    continue
                bigger = AbSubgroup.span(ambient, list(sub.generators()) + [x])
                found.setdefault(bigger, bigger)
                covered |= bigger._kset
        levels.append(tuple(sorted(found)))
    return levels


def old_span(ambient, gens):
    """Oracle: additive closure, extending by the multiples of each generator."""
    members = {ambient_zero(ambient)}
    for g in gens:
        shifts = []
        cur = tuple(v % ambient.modulus for v in g)
        while cur not in members:
            shifts.append(cur)
            cur = ambient_add(ambient, cur, g)
        members = members | {ambient_add(ambient, s, m) for s in shifts for m in members}
    return members


def respan_generators(sub):
    """Oracle: the greedy generators, re-spanning the list from scratch after
    every pick."""
    gens = []
    span = {ambient_zero(sub.ambient)}
    for x in sub.elements:
        if x in span:
            continue
        gens.append(x)
        span = old_span(sub.ambient, gens)
        if len(span) == sub.order:
            break
    return gens


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def composition_count(h, p, m):
    """Oracle: p^(sum_i (i-1) a_i) summed over every composition of m into h parts."""
    return sum(p ** sum(i * a for i, a in enumerate(comp)) for comp in compositions(m, h))


@pytest.mark.parametrize("p,k,h", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 2, 1), (2, 1, 2), (2, 0, 3)])
def test_lattice_levels_match_closure_oracle(p, k, h):
    amb = Ambient(p, k, h)
    for m in range(k * h + 1):
        level = subgroups_of_ambient(amb, order=p ** m)
        assert {s.elements for s in level} == brute_force_subgroups(amb, p ** m)
        assert [s.elements for s in level] == sorted(s.elements for s in level)


@pytest.mark.parametrize("p,k,h", [
    (2, 3, 2), (5, 1, 2),
    # the trivial group, an odd prime at h = 4, long cyclic chains
    (2, 0, 3), (3, 1, 4), (2, 13, 1), (3, 8, 1),
])
def test_lattice_levels_match_span_extension(p, k, h):
    amb = Ambient(p, k, h)
    assert abelian._subgroup_levels(amb, k * h) == span_extension_levels(amb)


# (7, 1, 4) to level 2 only: its full walk takes seconds
@pytest.mark.parametrize("p,k,h,top", [(7, 1, 4, 2), (2, 3, 4, 2), (3, 2, 3, 3), (2, 13, 1, 5)])
def test_lattice_levels_to_a_top_below_kh_match_span_extension(p, k, h, top):
    amb = Ambient(p, k, h)
    levels = abelian._subgroup_levels(amb, top)
    assert len(levels) == top + 1
    assert levels == span_extension_levels(amb, top)


@pytest.mark.parametrize("p,h", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 2), (7, 1)])
def test_a_deep_walk_lists_the_subgroups_of_each_smaller_ambient(p, h):
    # criterion 11 walks (Z/p^M)^h once: its level m must be the order-p^m
    # subgroups of (Z/p^m)^h, carried into the p^m-torsion by p^(M-m)
    M = accept._walk_exponent(p, h)
    levels = abelian._subgroup_levels(Ambient(p, M, h), M)
    assert len(levels) == M + 1
    for m, level in enumerate(levels):
        scale = p ** (M - m)
        small = {
            frozenset(tuple(scale * v for v in x) for x in sub.elements)
            for sub in enumerate_subgroups(h, p, m, p ** m)
        }
        assert {frozenset(sub.elements) for sub in level} == small
        assert len(small) == len(level)


def test_enumerate_subgroups_z4_squared():
    subs = enumerate_subgroups(2, 2, 2, 4)
    assert len(subs) == 7
    # oracle: independent closure enumeration over generating pairs
    assert {s.elements for s in subs} == brute_force_subgroups(Ambient(2, 2, 2), 4)


def test_enumerate_subgroups_small():
    assert len(enumerate_subgroups(1, 3, 1, 3)) == 1
    assert len(enumerate_subgroups(2, 2, 1, 2)) == 3


def test_enumerate_subgroups_all_closed():
    for sub in subgroups_of_ambient(Ambient(2, 2, 2)):
        assert is_closed(sub)
    for sub in subgroups_of_ambient(Ambient(3, 2, 1)):
        assert is_closed(sub)


def test_enumerate_subgroups_bad_inputs():
    with pytest.raises(NotPrime):
        enumerate_subgroups(2, 6, 1, 2)
    with pytest.raises(BadParameters):
        enumerate_subgroups(2, 2, 2, 6)
    with pytest.raises(ResourceLimit):
        enumerate_subgroups(4, 5, 4, 5)


@pytest.mark.parametrize("order", [0, -4, 6])
def test_enumerate_subgroups_refuses_an_order_that_is_no_power_of_p(order):
    # 0 and -4 once read as p^0 and returned the trivial subgroup
    with pytest.raises(BadParameters):
        enumerate_subgroups(2, 2, 2, order)


def test_annihilator_examples():
    amb = Ambient(2, 2, 2)
    full = full_subgroup(amb)
    triv = AbSubgroup.trivial(amb)
    assert annihilator(full) == triv
    assert annihilator(triv) == full
    u = AbSubgroup.span(amb, [(2, 0)])
    ann = annihilator(u)
    assert ann.order == 8
    assert ann == AbSubgroup.span(amb, [(2, 0), (0, 1)])


@pytest.mark.parametrize("p,k,h", [(2, 2, 2), (2, 1, 3), (3, 2, 1)])
def test_annihilator_involution_exhaustive(p, k, h):
    amb = Ambient(p, k, h)
    for sub in subgroups_of_ambient(amb):
        ann = sub.annihilator()
        assert sub.order * ann.order == amb.order
        assert ann.annihilator() == sub


def scan_annihilator(sub):
    """Oracle: every ambient element tested against every generator."""
    amb = sub.ambient
    gens = sub.generators()
    return AbSubgroup(
        amb, [y for y in ambient_elements(amb) if all(amb.pairing(x, y) == 0 for x in gens)]
    )


@pytest.mark.parametrize("p,k,h", [
    (2, 2, 2), (2, 3, 2), (2, 1, 3), (2, 2, 3), (3, 2, 2), (3, 1, 3),
    (2, 3, 3), (5, 1, 2), (2, 4, 2), (3, 2, 3), (2, 1, 4),
])
def test_annihilator_matches_element_scan(p, k, h):
    amb = Ambient(p, k, h)
    for sub in subgroups_of_ambient(amb):
        assert sub.annihilator() == scan_annihilator(sub)


def test_annihilator_never_lists_the_ambient_group(monkeypatch):
    # a solve that lists lam either tests every element of it against the
    # generators, pairing each with one at least, or builds it as a span:
    # the diagonal solve pairs only its h solutions with the h rows, and
    # spans nothing larger than the subgroup or its annihilator
    amb = Ambient(3, 2, 3)
    subs = subgroups_of_ambient(amb, 27)
    real_pairing, real_extend = Ambient.pairing, abelian._extend
    pairings = []

    def counted_pairing(self, x, y):
        pairings.append(None)
        return real_pairing(self, x, y)

    def bounded_extend(ambient, members, x):
        out = real_extend(ambient, members, x)
        if len(out) >= ambient.order:
            raise AssertionError("spanned all of %r" % (ambient,))
        return out

    monkeypatch.setattr(Ambient, "pairing", counted_pairing)
    monkeypatch.setattr(abelian, "_extend", bounded_extend)
    for sub in subs:
        del pairings[:]
        assert sub.annihilator().order == amb.order // sub.order
        assert len(pairings) <= amb.h * amb.h


def test_annihilator_checks_its_solution(monkeypatch):
    # the solve's generators are checked against the rows and its order
    # against |ambient| / |subgroup|: corrupt the list handed to the span
    amb = Ambient(2, 2, 2)
    sub = AbSubgroup.span(amb, [(2, 0)])
    real_span = AbSubgroup.span

    def corrupt(edit):
        def span(cls, ambient, gens):
            edit(gens)
            return real_span(ambient, gens)
        monkeypatch.setattr(AbSubgroup, "span", classmethod(span))

    corrupt(lambda gens: gens.append((1, 0)))
    with pytest.raises(InternalMismatch, match="pairs nontrivially"):
        sub.annihilator()
    corrupt(lambda gens: gens.pop())
    with pytest.raises(InternalMismatch, match="times subgroup order"):
        sub.annihilator()


def test_count_sublattices_values():
    assert count_sublattices(2, 2, 2) == 7
    assert count_sublattices(1, 2, 5) == 1
    assert count_sublattices(1, 7, 3) == 1
    for n in (1, 2, 3):
        for p in (2, 3):
            assert count_sublattices(n, p, 1) == sum(p ** i for i in range(n))


def test_count_sublattices_matches_enumeration():
    for h, p, m in [(1, 2, 3), (2, 2, 2), (2, 3, 1), (3, 2, 1), (2, 2, 3), (1, 5, 2)]:
        assert count_sublattices(h, p, m) == len(enumerate_subgroups(h, p, m, p ** m))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 6), st.integers(0, 8))
def test_count_closed_forms_agree(p, h, m):
    gauss = abelian._gaussian_binomial(m + h - 1, h - 1, p)
    assert gauss == abelian._echelon_count(h, p, m) == composition_count(h, p, m)
    assert count_sublattices(h, p, m) == gauss


def test_count_size_is_capped_before_work():
    # h (h + m) bit_length(p) above the cap: refused before any big-int work,
    # including the cases where a single factor is huge
    for h, p, m in [(600, 2, 600), (50000, 2, 1), (1, 2, 10 ** 9), (10 ** 9, 2, 0)]:
        assert h * (h + m) * p.bit_length() > abelian.COUNT_SIZE_CAP
        with pytest.raises(ResourceLimit):
            count_sublattices(h, p, m)


def test_check_prime_caps_trial_division():
    checks.check_prime(999999999989)  # the largest prime below the cap
    with pytest.raises(NotPrime):
        checks.check_prime(checks.PRIME_CAP)
    for big in (checks.PRIME_CAP + 39, 10 ** 18 + 3):
        with pytest.raises(ResourceLimit):
            checks.check_prime(big)
        with pytest.raises(ResourceLimit):
            Ambient(big, 1, 1)


def test_power_exceeds_matches_power():
    for p in (2, 3, 5, 7):
        for e in range(40):
            for cap in (1, 9, 16, 10 ** 4):
                assert checks.power_exceeds(p, e, cap) == (p ** e > cap)
    assert checks.power_exceeds(2, 10 ** 18, 9)


def test_count_closed_form_disagreement_is_a_mismatch(monkeypatch):
    monkeypatch.setattr(abelian, "_echelon_count", lambda h, p, m: 8)
    with pytest.raises(InternalMismatch):
        count_sublattices(2, 2, 2)


def test_sub_leq_count_values():
    assert sub_leq_count(1, 2, 2) == 3
    for p in (2, 3, 5):
        assert sub_leq_count(1, p, 1) == 2
    assert sub_leq_count(2, 2, 1) == 4
    assert sub_leq_count(2, 2, 2) == 11


def test_monotone_consistency_in_exponent():
    # the count of order-p^m subgroups is independent of the ambient exponent
    for K in (1, 2, 3):
        assert len(enumerate_subgroups(2, 2, K, 2)) == 3
    for K in (2, 3):
        assert len(enumerate_subgroups(1, 2, K, 4)) == 1
    assert len(enumerate_subgroups(2, 2, 2, 4)) == len(
        [s for s in subgroups_of_ambient(Ambient(2, 3, 2)) if s.order == 4]
    )


@settings(deadline=None, max_examples=30)
@given(st.sampled_from([(2, 2, 2), (3, 1, 2), (2, 1, 3)]), st.data())
def test_pairing_is_bilinear(params, data):
    p, k, h = params
    amb = Ambient(p, k, h)
    pick = st.sampled_from(ambient_elements(amb))
    x, y, z = data.draw(pick), data.draw(pick), data.draw(pick)
    assert amb.pairing(ambient_add(amb, x, y), z) == (
        amb.pairing(x, z) + amb.pairing(y, z)
    ) % amb.modulus
    assert amb.pairing(x, y) == amb.pairing(y, x)


def test_span_is_minimal_closure():
    amb = Ambient(2, 2, 2)
    sub = AbSubgroup.span(amb, [(1, 2)])
    assert sub.order == 4
    assert (2, 0) in sub
    assert sub.generators() == [(1, 2)]


def test_span_extends_only_by_generators_outside_the_span(monkeypatch):
    # <(1, 2)> in (Z/8)^2 holds (2, 4), (3, 6) and (4, 0); <(1, 2), (1, 0)>
    # holds every (a, even b), [5, 10] reduced to (5, 2) included
    amb = Ambient(2, 3, 2)
    gens = [(1, 2), (1, 2), (2, 4), (0, 0), (3, 6), (4, 0), (1, 0), (7, 0), (0, 6), [5, 10]]
    extended = []
    extend = abelian._extend

    def counting(ambient, members, x):
        extended.append(ambient._unpack(x))
        return extend(ambient, members, x)

    monkeypatch.setattr(abelian, "_extend", counting)
    sub = AbSubgroup.span(amb, gens)
    assert set(sub.elements) == old_span(amb, gens)
    assert sub.order == 32
    assert extended == [(1, 2), (1, 0)]


@pytest.mark.parametrize("p,k,h", [(2, 2, 2), (2, 1, 3), (2, 3, 2), (3, 2, 2)])
def test_generators_match_respan_oracle(p, k, h):
    amb = Ambient(p, k, h)
    for sub in subgroups_of_ambient(amb):
        gens = respan_generators(sub)
        assert sub.generators() == gens
        assert sub.generators() == gens  # the kept list, read again
        assert set(AbSubgroup.span(amb, gens).elements) == old_span(amb, gens) == set(sub.elements)


def test_report_walks_each_subgroup_once(monkeypatch):
    from transchrome.decomp import decompose, report_to_dict

    walks = {}
    walk = AbSubgroup._greedy_generators

    def counted(self):
        walks.setdefault(id(self), [self, 0])[1] += 1
        return walk(self)

    monkeypatch.setattr(AbSubgroup, "_greedy_generators", counted)
    report_to_dict(decompose(2, 3, 1, 3))
    assert walks
    assert max(count for _, count in walks.values()) == 1


def test_element_order():
    amb = Ambient(2, 2, 2)
    assert amb.element_order((0, 0)) == 1
    assert amb.element_order((2, 0)) == 2
    assert amb.element_order((1, 2)) == 4


@pytest.mark.parametrize("p,k,h", [(2, 2, 2), (3, 1, 2), (2, 1, 3)])
def test_equal_subgroups_hash_equal_however_built(p, k, h):
    amb = Ambient(p, k, h)
    for sub in subgroups_of_ambient(amb):
        by_span = AbSubgroup.span(amb, sub.generators())
        by_list = AbSubgroup(amb, list(reversed(sub.elements)))
        assert by_span == by_list == sub
        assert hash(by_span) == hash(by_list) == hash(sub) == hash((amb, sub._keys))
        assert hash(by_span) == hash(by_span)


PACKED_AMBIENTS = [(3, 2, 2), (2, 3, 2), (5, 1, 2), (3, 3, 1), (2, 1, 4), (2, 0, 3)]


@pytest.mark.parametrize("p,k,h", PACKED_AMBIENTS)
def test_packed_elements_round_trip_in_tuple_order(p, k, h):
    amb = Ambient(p, k, h)
    tuples = list(itertools.product(range(amb.modulus), repeat=h))
    keys = ambient_keys(amb)
    assert [amb._pack(x) for x in tuples] == list(keys)
    assert [amb._unpack(key) for key in keys] == tuples
    # int order is tuple order, on any subset
    picked = tuples[::-3]
    assert [amb._unpack(key) for key in sorted(amb._pack(x) for x in picked)] == sorted(picked)


@pytest.mark.parametrize("p,k,h", PACKED_AMBIENTS)
def test_packed_add_matches_tuple_add_on_every_pair(p, k, h):
    amb = Ambient(p, k, h)
    keys = ambient_keys(amb)
    tuples = [amb._unpack(key) for key in keys]
    for y, key in zip(tuples, keys):
        assert [amb._unpack(s) for s in abelian._translate(amb, keys, key)] == [
            ambient_add(amb, x, y) for x in tuples
        ]


def test_pack_refuses_what_is_not_an_element():
    amb = Ambient(2, 2, 2)
    for bad in [(1, 0, 1), (1,), (), (0, 4), (-1, 0), (0, 1.0), [0, 1], "ab", 3]:
        with pytest.raises(BadParameters):
            amb._pack(bad)
    assert amb._pack((5, -1), reduce=True) == amb._pack((1, 3))
    with pytest.raises(BadParameters):
        amb._pack((1, 0, 1), reduce=True)


def _within(seconds, func, *args):
    """func(*args), or a failure after ``seconds`` instead of a hang."""
    def expire(signum, frame):
        raise TimeoutError("still running after %s s" % seconds)

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return func(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("gen", [(1, 0, 1), (1,), (1, "a"), 7])
def test_span_refuses_a_generator_that_is_no_element(gen):
    # a wrong-length generator once looped forever: its multiples never
    # equal a length-2 element of the span
    with pytest.raises(BadParameters):
        _within(5, AbSubgroup.span, Ambient(2, 2, 2), [gen])


def test_ambient_cap_reads_the_exponent_not_the_order(monkeypatch):
    # (Z/2)^(10^12) is refused from k*h alone: 2^(10^12) is never formed
    def formed(self):
        raise AssertionError("the ambient order was formed")

    monkeypatch.setattr(Ambient, "order", property(formed))
    huge = Ambient(2, 1, 10 ** 12)
    with pytest.raises(ResourceLimit):
        abelian.subgroups_of_ambient(huge)
    with pytest.raises(ResourceLimit):
        full_subgroup(huge)
    with pytest.raises(ResourceLimit):
        annihilator(AbSubgroup.trivial(huge))


def test_span_refuses_above_the_cap_before_closing(monkeypatch):
    # (Z/2^8)^2 has 65 536 elements, above AMBIENT_CAP, as subgroups_of_ambient
    # refuses it; a span that may reach that order is refused before any
    # closure, and one whose generators' orders bound it below the cap runs
    def no_closure(*args):
        raise AssertionError("the span was closed before its cap was checked")

    big = Ambient(2, 8, 2)
    with pytest.raises(ResourceLimit):
        abelian.subgroups_of_ambient(big)
    with monkeypatch.context() as m:
        m.setattr(abelian, "_extend", no_closure)
        for gens in ([(1, 0), (0, 1)], [(1, 0)] * 2, [(1, 1), (0, 2)]):
            with pytest.raises(ResourceLimit):
                AbSubgroup.span(big, gens)
        with pytest.raises(ResourceLimit):
            AbSubgroup.span(Ambient(2, 30, 2), [(1, 0)])
    assert AbSubgroup.span(big, [(128, 0), (0, 64)]).order == 8
    assert AbSubgroup.span(big, [(1, 0)]).order == 256


def test_span_reduces_coordinates_mod_p_to_the_k():
    amb = Ambient(2, 2, 2)
    assert AbSubgroup.span(amb, [(5, -2), [0, 6]]) == AbSubgroup.span(amb, [(1, 2), (0, 2)])


def test_constructor_refuses_coordinates_out_of_range():
    amb = Ambient(2, 2, 2)
    for elements in ([(0, 0), (5, 0)], [(0, 0), (0, -1)], [(0, 0), (0, 0, 0)]):
        with pytest.raises(BadParameters):
            AbSubgroup(amb, elements)


def test_constructor_refuses_a_set_that_is_not_a_subgroup():
    # {0, 1} in Z/4 is no subgroup, and its annihilator would fail its own
    # check; a set must equal its closure
    amb = Ambient(2, 2, 1)
    for elements in ([(0,), (1,)], [(1,), (2,), (3,)], [], [(0,), (1,), (2,)]):
        with pytest.raises(BadParameters, match="not a subgroup"):
            AbSubgroup(amb, elements)
    # orders that do not divide the set's size are refused before any closure
    with pytest.raises(BadParameters, match="not a subgroup"):
        AbSubgroup(Ambient(10007, 3, 1), [(0,), (1,)])
    # 31 independent vectors and zero: refused without closing 2^31 elements
    basis = [tuple(int(i == j) for j in range(40)) for i in range(31)]
    with pytest.raises(BadParameters, match="not a subgroup"):
        AbSubgroup(Ambient(2, 1, 40), [(0,) * 40] + basis)
    assert AbSubgroup(amb, iter([(2,), (0,)])) == AbSubgroup.span(amb, [(2,)])


def test_membership_of_a_non_element_is_false():
    full = full_subgroup(Ambient(2, 2, 2))
    assert (3, 3) in full
    for x in [(0, 16), (4, 0), (0, -1), (0, 0, 0), (0,), (), "ab", None]:
        assert x not in full
