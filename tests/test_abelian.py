import itertools

import pytest
from hypothesis import given, settings, strategies as st

from transchrome import abelian
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


def brute_force_subgroups(ambient, order):
    """Oracle: closures of all generating pairs/triples, deduplicated."""
    elems = ambient.elements()
    found = set()
    for r in range(1, 4):
        for gens in itertools.combinations(elems, r):
            sub = AbSubgroup.span(ambient, gens)
            if sub.order == order:
                found.add(sub.elements)
    return found


def span_extension_levels(ambient):
    """Oracle: the lattice levels built by re-spanning generators plus one
    element, scanning the whole ambient group for candidates."""
    p = ambient.p
    levels = [(AbSubgroup.trivial(ambient),)]
    for _ in range(ambient.k * ambient.h):
        found = {}
        for sub in levels[-1]:
            candidates = [
                x for x in ambient.elements()
                if x not in sub and ambient.scale(p, x) in sub
            ]
            covered = set()
            for x in candidates:
                if x in covered:
                    continue
                bigger = AbSubgroup.span(ambient, list(sub.generators()) + [x])
                found.setdefault(bigger.elements, bigger)
                covered.update(bigger.elements)
        levels.append(tuple(sorted(found.values())))
    return levels


def old_span(ambient, gens):
    """Oracle: additive closure, extending by the multiples of each generator."""
    members = {ambient.zero()}
    for g in gens:
        shifts = []
        cur = tuple(v % ambient.modulus for v in g)
        while cur not in members:
            shifts.append(cur)
            cur = ambient.add(cur, g)
        members = members | {ambient.add(s, m) for s in shifts for m in members}
    return members


def respan_generators(sub):
    """Oracle: the greedy generators, re-spanning the list from scratch after
    every pick."""
    gens = []
    span = {sub.ambient.zero()}
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


@pytest.mark.parametrize("p,k,h", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 2, 1), (2, 1, 2)])
def test_lattice_levels_match_closure_oracle(p, k, h):
    amb = Ambient(p, k, h)
    for m in range(k * h + 1):
        level = subgroups_of_ambient(amb, order=p ** m)
        assert {s.elements for s in level} == brute_force_subgroups(amb, p ** m)
        assert [s.elements for s in level] == sorted(s.elements for s in level)


@pytest.mark.parametrize("p,k,h", [(2, 3, 2), (5, 1, 2)])
def test_lattice_levels_match_span_extension(p, k, h):
    amb = Ambient(p, k, h)
    assert abelian._subgroup_levels(amb, k * h) == span_extension_levels(amb)


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
        assert sub.is_closed()
    for sub in subgroups_of_ambient(Ambient(3, 2, 1)):
        assert sub.is_closed()


def test_enumerate_subgroups_bad_inputs():
    with pytest.raises(NotPrime):
        enumerate_subgroups(2, 6, 1, 2)
    with pytest.raises(BadParameters):
        enumerate_subgroups(2, 2, 2, 6)
    with pytest.raises(ResourceLimit):
        enumerate_subgroups(4, 5, 4, 5)


def test_annihilator_examples():
    amb = Ambient(2, 2, 2)
    full = AbSubgroup.full(amb)
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
    return AbSubgroup(amb, [y for y in amb.elements() if all(amb.pairing(x, y) == 0 for x in gens)])


@pytest.mark.parametrize("p,k,h", [
    (2, 2, 2), (2, 3, 2), (2, 1, 3), (2, 2, 3), (3, 2, 2), (3, 1, 3),
    (2, 3, 3), (5, 1, 2), (2, 4, 2), (3, 2, 3), (2, 1, 4),
])
def test_annihilator_matches_element_scan(p, k, h):
    amb = Ambient(p, k, h)
    for sub in subgroups_of_ambient(amb):
        assert sub.annihilator() == scan_annihilator(sub)


def test_annihilator_never_lists_the_ambient_group(monkeypatch):
    amb = Ambient(3, 2, 3)
    subs = subgroups_of_ambient(amb, 27)

    def refuse(ambient):
        raise AssertionError("listed the elements of %r" % (ambient,))

    monkeypatch.setattr(abelian, "_ambient_elements", refuse)
    for sub in subs:
        assert sub.annihilator().order == amb.order // sub.order


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
    abelian.check_prime(999999999989)  # the largest prime below the cap
    with pytest.raises(NotPrime):
        abelian.check_prime(abelian.PRIME_CAP)
    for big in (abelian.PRIME_CAP + 39, 10 ** 18 + 3):
        with pytest.raises(ResourceLimit):
            abelian.check_prime(big)
        with pytest.raises(ResourceLimit):
            Ambient(big, 1, 1)


def test_power_exceeds_matches_power():
    for p in (2, 3, 5, 7):
        for e in range(40):
            for cap in (1, 9, 16, 10 ** 4):
                assert abelian.power_exceeds(p, e, cap) == (p ** e > cap)
    assert abelian.power_exceeds(2, 10 ** 18, 9)


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
    pick = st.sampled_from(amb.elements())
    x, y, z = data.draw(pick), data.draw(pick), data.draw(pick)
    assert amb.pairing(amb.add(x, y), z) == (amb.pairing(x, z) + amb.pairing(y, z)) % amb.modulus
    assert amb.pairing(x, y) == amb.pairing(y, x)


def test_span_is_minimal_closure():
    amb = Ambient(2, 2, 2)
    sub = AbSubgroup.span(amb, [(1, 2)])
    assert sub.order == 4
    assert (2, 0) in sub
    assert sub.generators() == [(1, 2)]


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
        assert hash(by_span) == hash(by_list) == hash(sub) == hash((amb, sub.elements))
        assert hash(by_span) == hash(by_span)
