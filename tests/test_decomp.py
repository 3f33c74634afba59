import copy
import functools
import json
import math
import pickle
import signal

import pytest

from transchrome import abelian, decomp
from transchrome.abelian import (
    Ambient,
    AbSubgroup,
    count_sublattices,
    enumerate_subgroups,
    sub_leq_count,
    subgroups_of_ambient,
)
from transchrome.errors import BadParameters, ResourceLimit
from transchrome.homclass import enumerate_hom_classes, lam_group

from oracles import fiber_ranks, full_subgroup, report_from_json, report_to_json


def by_label_order(report):
    return sorted((r.dual_image.order, r.fiber_rank) for r in report.nontrivial)


def test_decompose_2_2_1_1():
    report = decomp.decompose(2, 2, 1, 1)
    assert report.total_degree == 3
    assert by_label_order(report) == [(1, 1), (2, 2)]
    assert decomp.verify_triangle(report)


def test_decompose_2_2_1_2():
    report = decomp.decompose(2, 2, 1, 2)
    assert report.total_degree == 7
    assert by_label_order(report) == [(1, 1), (2, 2), (4, 4)]
    surviving = {r.class_id for r in report.nontrivial}
    assert surviving == {
        "p2.k2.h1:[(U<1>:idx1,m4)]",
        "p2.k2.h1:[(U<2>:idx2,m2)]",
        "p2.k2.h1:[(U<0>:idx4,m1)]",
    }
    assert decomp.verify_triangle(report)


def test_decompose_p_inverted():
    report = decomp.decompose(3, 1, 0, 1)
    assert len(report.nontrivial) == 1
    assert report.nontrivial[0].dual_image.order == 3
    assert report.total_degree == 1
    assert decomp.verify_triangle(report)


def test_decompose_rejects_bad_parameters():
    with pytest.raises(BadParameters):
        decomp.decompose(2, 2, 2, 1)
    with pytest.raises(BadParameters):
        decomp.decompose(2, 2, 1, 0)
    with pytest.raises(ResourceLimit):
        decomp.decompose(2, 2, 1, 4)
    with pytest.raises(ResourceLimit):
        decomp.decompose(2, 5, 1, 1)


def test_fiber_rank_examples():
    lam = lam_group(2, 1, 2)
    full = full_subgroup(lam)
    triv = AbSubgroup.trivial(lam)
    half = AbSubgroup.span(lam, [(2,)])
    assert decomp.fiber_rank(full, 2, 2, 1, 2) == 4  # p^{kt}
    assert decomp.fiber_rank(triv, 2, 2, 1, 2) == 1  # height-1 count of order-4 subgroups
    assert decomp.fiber_rank(half, 2, 2, 1, 2) == 2


def test_fiber_rank_partitions_total_degree():
    # every order-p^k subgroup projects onto exactly one label
    for p, n, t, k in [(2, 2, 1, 2), (2, 3, 1, 1), (2, 3, 2, 1), (3, 2, 1, 1)]:
        h = n - t
        total = 0
        for m in range(k + 1):
            for L in enumerate_subgroups(h, p, k, p ** m):
                total += decomp.fiber_rank(L, p, n, t, k)
        assert total == count_sublattices(n, p, k)


def test_fiber_rank_extremes_match_closed_forms():
    for p, n, t, k in [(2, 2, 1, 1), (2, 2, 1, 2), (3, 2, 1, 1), (2, 3, 2, 1)]:
        h = n - t
        lam = lam_group(p, h, k)
        assert decomp.fiber_rank(AbSubgroup.trivial(lam), p, n, t, k) == count_sublattices(t, p, k)
        cyclic = AbSubgroup.span(lam, [(1,) + (0,) * (h - 1)])
        assert cyclic.order == p ** k
        assert decomp.fiber_rank(cyclic, p, n, t, k) == p ** (k * t)


def per_label_rank(L, p, n, t, k):
    """Oracle: the per-component count, one projection scan per label."""
    target = set(L.elements)
    return sum(
        1
        for sub in subgroups_of_ambient(Ambient(p, k, n), order=p ** k)
        if {vec[t:] for vec in sub.elements} == target
    )


@pytest.mark.parametrize("p,n,t,k", [(2, 2, 1, 2), (2, 3, 1, 1), (2, 3, 2, 1), (3, 2, 1, 1), (2, 2, 0, 2)])
def test_fiber_ranks_match_per_label_scan(p, n, t, k):
    ranks = fiber_ranks(p, n, t, k)
    labels = [L for m in range(k + 1) for L in enumerate_subgroups(n - t, p, k, p ** m)]
    assert set(ranks) <= {L.elements for L in labels}
    for L in labels:
        assert ranks.get(L.elements, 0) == per_label_rank(L, p, n, t, k)
        assert decomp.fiber_rank(L, p, n, t, k) == per_label_rank(L, p, n, t, k)
    assert sum(ranks.values()) == count_sublattices(n, p, k)


@pytest.mark.parametrize("p,n,t,k", [(2, 3, 1, 3), (3, 3, 1, 2), (2, 3, 0, 2), (2, 4, 1, 2)])
def test_fiber_ranks_project_packed_keys_as_the_decoded_elements(p, n, t, k):
    # the oracle's masked packed keys give the dict that slicing every
    # decoded element gave, and no subgroup of the split model is decoded
    subs = subgroups_of_ambient(Ambient(p, k, n), order=p ** k)
    want = {}
    for sub in subs:
        proj = tuple(sorted({vec[t:] for vec in sub.elements}))
        want[proj] = want.get(proj, 0) + 1
    decoded = []
    real = AbSubgroup.elements

    def counted(sub):
        decoded.append(sub)
        return real.fget(sub)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(AbSubgroup, "elements", property(counted))
        assert fiber_ranks(p, n, t, k) == want
    assert decoded == []


# every (p, n, t, k) that decompose admits: p^k <= 9, n - t <= 3 and the
# split model (Z/p^k)^n within the ambient cap
ADMITTED = [
    (p, n, t, k)
    for p in (2, 3, 5, 7) for k in (1, 2, 3) if p ** k <= 9
    for n in range(1, 16) if p ** (k * n) <= abelian.AMBIENT_CAP
    for t in range(max(0, n - 3), n)
]


@functools.cache
def listed(p, n, t, k):
    """The oracle's ranks and every label of order <= p^k, by listing."""
    levels = abelian._subgroup_levels(Ambient(p, k, n - t), k)
    return fiber_ranks(p, n, t, k), [L for level in levels for L in level]


def test_fiber_rank_is_the_listing_on_every_admitted_request():
    assert len(ADMITTED) == 111
    for p, n, t, k in ADMITTED:
        ranks, labels = listed(p, n, t, k)
        assert set(ranks) <= {L.elements for L in labels}
        for L in labels:
            assert decomp.fiber_rank(L, p, n, t, k) == ranks.get(L.elements, 0), (p, n, t, k, L)


def test_listed_ranks_depend_only_on_the_label_order():
    # the structure the closed form rests on, checked on the listing alone:
    # labels of one order have one rank, however their elements' orders
    # split (cyclic and elementary labels share a level from k = 2 on)
    mixed = 0
    for p, n, t, k in ADMITTED:
        ranks, labels = listed(p, n, t, k)
        by_order, types = {}, {}
        for L in labels:
            by_order.setdefault(L.order, set()).add(ranks.get(L.elements, 0))
            orders = [L.ambient.element_order(x) for x in L.elements]
            torsion = tuple(sum(o <= p ** j for o in orders) for j in range(k + 1))
            types.setdefault(L.order, set()).add(torsion)
        assert all(len(seen) == 1 for seen in by_order.values()), (p, n, t, k)
        mixed += any(len(seen) > 1 for seen in types.values())
    assert mixed


def test_decompose_lists_no_subgroup_of_the_split_model(monkeypatch):
    calls = []
    original = abelian.subgroups_of_ambient

    def counting(ambient, order=None):
        calls.append(ambient)
        return original(ambient, order)

    monkeypatch.setattr(abelian, "subgroups_of_ambient", counting)
    report = decomp.decompose(2, 3, 1, 2)
    assert len(report.nontrivial) > 1
    assert calls == []


def test_fiber_rank_walks_no_lattice_of_the_split_model(monkeypatch):
    # one call per label of (2,3,1,3), none of which walks (Z/8)^3
    p, n, t, k = 2, 3, 1, 3
    labels = [L for level in abelian._subgroup_levels(Ambient(p, k, n - t), k) for L in level]
    original = abelian._subgroup_levels

    def refusing(ambient, top):
        assert ambient != Ambient(p, k, n), "walked the split model"
        return original(ambient, top)

    monkeypatch.setattr(abelian, "_subgroup_levels", refusing)
    ranks = [decomp.fiber_rank(L, p, n, t, k) for L in labels]
    assert len(ranks) == sub_leq_count(n - t, p, k) == 26
    assert sum(ranks) == count_sublattices(n, p, k)


def test_fiber_ranks_cap_before_work(monkeypatch):
    # fiber_rank and decompose refuse a split model above the ambient cap
    # before any rank or class is computed
    def no_work(*args):
        raise AssertionError("worked past the ambient cap")

    monkeypatch.setattr(abelian, "_gaussian_binomial", no_work)
    monkeypatch.setattr(decomp.homclass, "enumerate_hom_classes", no_work)
    lam = lam_group(2, 1, 1)
    for n in (14, 10 ** 9):
        with pytest.raises(ResourceLimit, match=r"\(Z/2\^1\)\^%d exceeds cap" % n):
            decomp.fiber_rank(AbSubgroup.trivial(lam), 2, n, n - 1, 1)
        with pytest.raises(ResourceLimit, match=r"\(Z/2\^1\)\^%d exceeds cap" % n):
            decomp.decompose(2, n, n - 1, 1)
    with pytest.raises(BadParameters):
        decomp.fiber_rank(AbSubgroup.trivial(lam), 2, 2, 2, 1)
    with pytest.raises(BadParameters):
        decomp.fiber_rank(AbSubgroup.trivial(lam_group(2, 3, 1)), 2, 2, -1, 1)


# the largest n per (p, k) whose split model (Z/p^k)^n is within the cap
FRONTIER = [(2, 1, 13), (2, 2, 6), (2, 3, 4), (3, 1, 8), (3, 2, 4), (5, 1, 5), (7, 1, 4)]


@pytest.mark.parametrize("p,k,n", FRONTIER)
def test_decompose_answers_at_the_ambient_cap_and_refuses_past_it(p, k, n):
    assert p ** (k * n) <= abelian.AMBIENT_CAP < p ** (k * (n + 1))
    report = decomp.decompose(p, n, n - 1, k)
    assert report.rank_sum == count_sublattices(n, p, k)
    assert decomp.verify_triangle(report)
    message = r"^ambient group \(Z/%d\^%d\)\^%d exceeds cap 10000$" % (p, k, n + 1)
    with pytest.raises(ResourceLimit, match=message):
        decomp.decompose(p, n + 1, n, k)


def test_component_counts_match_closed_form():
    for p, h, k in [(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1)]:
        report = decomp.decompose(p, h + 1, 1, k)
        assert len(report.nontrivial) == sub_leq_count(h, p, k)
        assert len(report.records) == len(enumerate_hom_classes(p, h, k))


def test_isotypic_iff_surviving():
    for p, n, t, k in [(2, 2, 1, 2), (2, 3, 1, 1), (3, 2, 1, 2)]:
        report = decomp.decompose(p, n, t, k)
        for rec in report.records:
            assert rec.ideal_trivial == (not rec.isotypic)
            if not rec.ideal_trivial:
                assert rec.dual_image.order == p ** rec.m


def test_wreath_centralizer_order_identity():
    # height boundary t = n-1, rank one: surviving classes have centralizers
    # of wreath-product order (p^i)^(p^j) * (p^j)! with i + j = k
    for p, k in [(2, 2), (2, 3), (3, 2)]:
        report = decomp.decompose(p, 2, 1, k)
        for rec in report.nontrivial:
            i = rec.m
            j = k - i
            assert rec.centralizer_order == (p ** i) ** (p ** j) * math.factorial(p ** j)


def test_verify_triangle_fault_injection():
    report = decomp.decompose(2, 2, 1, 2)
    assert decomp.verify_triangle(report)

    bad_records = []
    for rec in report.records:
        if rec.fiber_rank is not None and not bad_records:
            bad_records.append(
                decomp.ComponentRecord(
                    hom_class=rec.hom_class,
                    isotypic=rec.isotypic,
                    m=rec.m,
                    dual_image=rec.dual_image,
                    ideal_trivial=rec.ideal_trivial,
                    fiber_rank=rec.fiber_rank + 1,
                    centralizer_order=rec.centralizer_order,
                )
            )
        else:
            bad_records.append(rec)
    tampered = decomp.DecompositionReport(
        p=report.p, n=report.n, t=report.t, k=report.k,
        records=tuple(bad_records),
        total_degree=report.total_degree,
        rank_sum=report.rank_sum,
    )
    failures = decomp.triangle_failures(tampered)
    assert not decomp.verify_triangle(tampered)
    assert any("(b)" in f for f in failures)


def test_verify_triangle_detects_bad_labelling():
    report = decomp.decompose(2, 2, 1, 1)
    lam = lam_group(2, 1, 1)
    full = full_subgroup(lam)
    bad_records = tuple(
        decomp.ComponentRecord(
            hom_class=rec.hom_class,
            isotypic=rec.isotypic,
            m=rec.m,
            dual_image=full,
            ideal_trivial=rec.ideal_trivial,
            fiber_rank=rec.fiber_rank,
            centralizer_order=rec.centralizer_order,
        )
        for rec in report.records
    )
    tampered = decomp.DecompositionReport(
        p=report.p, n=report.n, t=report.t, k=report.k,
        records=bad_records,
        total_degree=report.total_degree,
        rank_sum=report.rank_sum,
    )
    failures = decomp.triangle_failures(tampered)
    assert any("(a)" in f for f in failures)


def test_report_json_round_trip():
    report = decomp.decompose(2, 2, 1, 2)
    text = report_to_json(report)
    parsed = report_from_json(text)
    assert parsed == report
    assert report_to_json(parsed) == text


def test_report_table_rendering():
    report = decomp.decompose(2, 2, 1, 1)
    table = decomp.render_table(report)
    assert "degree=3" in table
    assert "rank sum = 3" in table
    assert table.count("\n") >= 4


def test_decompose_raises_on_criteria_disagreement(monkeypatch):
    # force the diagonal test to lie: the transfer-orbit criterion must
    # catch it as a hard, build-failing error
    from transchrome.errors import InternalMismatch

    monkeypatch.setattr(decomp.homclass, "is_isotypic", lambda hc: False)
    with pytest.raises(InternalMismatch):
        decomp.decompose(2, 2, 1, 1)


def test_decompose_is_safe_under_concurrent_calls():
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=4) as pool:
        reports = list(pool.map(lambda _: decomp.decompose(2, 2, 1, 2), range(4)))
    assert all(r == reports[0] for r in reports)
    assert all(report_to_json(r) == report_to_json(reports[0]) for r in reports)


@pytest.mark.parametrize("p,n,t,k", [(5, 1, 0, 1), (5, 2, 1, 1), (7, 2, 1, 1),
                                     (2, 4, 1, 1), (3, 3, 2, 1), (2, 4, 3, 2)])
def test_decompose_other_primes_and_ranks(p, n, t, k):
    report = decomp.decompose(p, n, t, k)
    assert decomp.verify_triangle(report)
    h = n - t
    want = sub_leq_count(h, p, k) if t > 0 else count_sublattices(h, p, k)
    assert len(report.nontrivial) == want
    assert report.rank_sum == count_sublattices(n, p, k)


def test_larger_instances_clean():
    # the two desk-scale heavyweights: blocks of 4 in Sym(8), blocks of 3 in Sym(9)
    report8 = decomp.decompose(2, 2, 1, 3)
    assert report8.total_degree == 15
    assert len(report8.nontrivial) == sub_leq_count(1, 2, 3)
    assert decomp.verify_triangle(report8)

    report9 = decomp.decompose(3, 2, 1, 2)
    assert report9.total_degree == 13
    assert len(report9.nontrivial) == sub_leq_count(1, 3, 2)
    assert decomp.verify_triangle(report9)


def test_report_with_a_wrong_length_generator_is_refused():
    # the dual image is re-spanned from the report: a generator of length 3
    # in rank 2 once made that span loop forever
    report = decomp.decompose(2, 3, 1, 1)
    data = json.loads(report_to_json(report))
    comp = next(c for c in data["components"] if c["L"]["generators"])
    comp["L"]["generators"][0].append(0)
    text = json.dumps(data)
    signal.signal(signal.SIGALRM, lambda signum, frame: pytest.fail("still running after 5 s"))
    signal.alarm(5)
    try:
        with pytest.raises(BadParameters):
            report_from_json(text)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def test_records_are_frozen_values():
    # plain classes, not generated dataclasses: the dataclass repr text,
    # equality and hash on the fields, no assignment or deletion, pickling
    from transchrome import accept, classfun, homclass
    from transchrome.perm import block_subgroup, symmetric_group

    report = decomp.decompose(2, 2, 1, 2)
    hc = enumerate_hom_classes(2, 1, 2)[1]
    datum = classfun.transfer_datum(symmetric_group(4), block_subgroup(2, 2), hc)
    fiber = homclass.coset_fiber(hc, 1)[0]
    assert repr(hc.lam) == "Ambient(p=2, k=2, h=1)"
    assert repr(datum.records[0]) == (
        "OrbitRecord(coset_rep=Perm[e], h_key=((0, 1, 3, 2),), stabilizer_order=4, index=1)"
    )
    assert repr(fiber).startswith("FiberOrbit(partition=((0, 1), (2, 3)), coset_rep=Perm[e], ")
    assert repr(report).startswith(
        "DecompositionReport(p=2, n=2, t=1, k=2, records=(ComponentRecord(hom_class=HomClass("
    )
    assert repr(report).endswith(", total_degree=7, rank_sum=7, convention='%s')" % decomp.CONVENTION)
    records = [hc.lam, hc, homclass.realize(hc), fiber, datum, datum.records[0],
               report.records[0], report]
    for rec in records:
        assert pickle.loads(pickle.dumps(rec)) == rec
        assert copy.copy(rec) == rec and hash(copy.copy(rec)) == hash(rec)
        for name in rec._fields:
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(rec, name, None)
            with pytest.raises(AttributeError, match="cannot delete field"):
                delattr(rec, name)
    assert hash(hc.lam) == hash((2, 2, 1))
    assert hash(datum) == hash((datum.alpha_key, datum.fixed_count, datum.centralizer_order,
                                datum.records))
    # the acceptance rows stay mutable and unhashable
    row = accept.CriterionResult(1, "name", True, "detail")
    row.ok = False
    assert row == accept.CriterionResult(1, "name", False, "detail")
    with pytest.raises(TypeError):
        hash(row)


def test_a_decompose_grid_at_one_etale_rank_proves_each_class_once(monkeypatch):
    # (2,3,1,3) and (2,4,2,3) both ask for the 148 transfer data of
    # S8 > S4xS4 at lam = (2,2,3): the second reads what the first proved
    from transchrome import classfun

    calls = []
    real = classfun._build_datum

    def counting(*args):
        calls.append(args[-1])
        return real(*args)

    classfun._induction_data.cache_clear()
    monkeypatch.setattr(classfun, "_build_datum", counting)
    decomp.decompose(2, 3, 1, 3)
    assert len(calls) == 148
    decomp.decompose(2, 4, 2, 3)
    assert len(calls) == len(set(calls)) == 148
