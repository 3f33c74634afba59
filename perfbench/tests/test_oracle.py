import pytest

import oracle


def test_gaussian_binomial_matches_criterion_06_hand_values():
    # (h, p, m) spots of acceptance criterion 06
    spots = [((2, 2, 1), 3), ((2, 2, 2), 7), ((2, 3, 2), 13), ((3, 2, 1), 7)]
    assert [oracle.subgroup_count(h, p, m) for (h, p, m), _ in spots] == [w for _, w in spots]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_gaussian_binomial_matches_composition_sum(p):
    for h in range(1, 6):
        for m in range(8):
            assert oracle.subgroup_count(h, p, m) == oracle.composition_sum(h, p, m)


def _report(p, n, t, k, ranks, triangle=True):
    degree = oracle.subgroup_count(n, p, k)
    comps = [{"ideal_trivial": False, "fiber_rank": r} for r in ranks]
    comps.append({"ideal_trivial": True, "fiber_rank": None})
    return {"p": p, "n": n, "t": t, "k": k, "degree": degree, "rank_sum": degree,
            "components": comps, "triangle_ok": triangle}


def test_check_decompose():
    # (2,2,1,2): degree 7; survivors are the subgroups of order <= 4 of Q_2/Z_2
    good = _report(2, 2, 1, 2, [1, 2, 4])
    assert oracle.check_decompose(good) == []
    assert oracle.check_decompose(_report(2, 2, 1, 2, [3, 4])) != []
    assert oracle.check_decompose(_report(2, 2, 1, 2, [1, 2, 4], triangle=False)) != []
    # t = 0 keeps only the order-4 subgroups of (Q_2/Z_2)^2: seven of rank 1
    assert oracle.check_decompose(_report(2, 2, 0, 2, [1] * 7)) == []
    assert oracle.check_decompose(_report(2, 2, 0, 2, [1, 2, 4])) != []


def test_check_count_sub_and_fgl():
    assert oracle.check_count_sub({"h": 2, "p": 3, "m": 2, "count": 13, "bruteforce": 13}) == []
    assert oracle.check_count_sub({"h": 2, "p": 3, "m": 2, "count": 13, "bruteforce": 12}) != []
    assert oracle.check_fgl({"torsion_rank": 9}, 3, 2, 1) == []
    assert oracle.check_fgl({"torsion_rank": 3}, 3, 2, 1) != []
