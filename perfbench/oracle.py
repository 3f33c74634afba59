"""Known answers computed by the benchmark itself, never by transchrome.

Each ``check_*`` function takes the parsed ``--json`` output of one CLI
request and returns a list of problems; an empty list means the output
agrees with the closed forms below.
"""

from __future__ import annotations


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """[n choose k]_q by the product formula; 0 outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subgroup_count(h: int, p: int, m: int) -> int:
    """Order-p^m subgroups of (Q_p/Z_p)^h: [m+h-1 choose h-1]_p."""
    return gaussian_binomial(m + h - 1, h - 1, p)


def composition_sum(h: int, p: int, m: int) -> int:
    """The same count as a sum over compositions a_1 + ... + a_h = m of
    p^(sum_i (i-1) a_i); exponential in h, for cross-checking small cases."""

    def rest(i, left):
        # sum over a_i + ... + a_h = left of p^(sum_j (j-1) a_j)
        if i == h:
            return p ** ((i - 1) * left)
        return sum(p ** ((i - 1) * a) * rest(i + 1, left - a) for a in range(left + 1))

    return rest(1, m)


def check_decompose(data: dict) -> list:
    p, n, t, k = data["p"], data["n"], data["t"], data["k"]
    h = n - t
    degree = subgroup_count(n, p, k)
    if t > 0:
        survivors = sum(subgroup_count(h, p, m) for m in range(k + 1))
    else:
        survivors = subgroup_count(h, p, k)
    got = [c for c in data["components"] if not c["ideal_trivial"]]
    problems = []
    if data["degree"] != degree:
        problems.append("degree %d != %d" % (data["degree"], degree))
    if data["rank_sum"] != degree:
        problems.append("rank_sum %d != %d" % (data["rank_sum"], degree))
    if sum(c["fiber_rank"] for c in got) != degree:
        problems.append("surviving fiber ranks do not add up to %d" % degree)
    if len(got) != survivors:
        problems.append("%d surviving components != %d" % (len(got), survivors))
    if data["triangle_ok"] is not True:
        problems.append("triangle check failed")
    return problems


def check_count_sub(data: dict) -> list:
    want = subgroup_count(data["h"], data["p"], data["m"])
    problems = []
    if data["count"] != want:
        problems.append("count %d != %d" % (data["count"], want))
    if data["bruteforce"] is not None and data["bruteforce"] != want:
        problems.append("bruteforce %d != %d" % (data["bruteforce"], want))
    return problems


def check_fgl(data: dict, p: int, n: int, k: int) -> list:
    want = p ** (k * n)
    if data["torsion_rank"] != want:
        return ["torsion_rank %d != %d" % (data["torsion_rank"], want)]
    return []


def check_reproduce(data: dict, seed: int) -> list:
    passed = sum(c["ok"] is True for c in data["criteria"])
    problems = []
    if data["seed"] != seed:
        problems.append("seed %r != %d" % (data["seed"], seed))
    if passed != 11 or len(data["criteria"]) != 11 or data["ok"] is not True:
        problems.append("%d/%d criteria ok" % (passed, len(data["criteria"])))
    return problems
