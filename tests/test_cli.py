import hashlib
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from transchrome import decomp
from transchrome.cli import build_parser, main

from oracles import report_from_dict

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_homs_table(capsys):
    code, out, _ = run_cli(capsys, "homs", "--p", "2", "--h", "1", "--k", "2")
    assert code == 0
    assert "4 total" in out
    assert "|C|=24" in out and "|C|=8" in out


GOLDEN = [
    ("homs_p2_h1_k2", ("homs", "--p", "2", "--h", "1", "--k", "2")),
    # kernel order at rank h >= 2 and at an odd prime
    ("homs_p3_h2_k2", ("homs", "--p", "3", "--h", "2", "--k", "2")),
    ("homs_p2_h3_k2", ("homs", "--p", "2", "--h", "3", "--k", "2")),
    ("transfer_p2_h1_k2_alpha", ("transfer", "--p", "2", "--h", "1", "--k", "2",
                                 "--alpha", "(0 1)(2 3)")),
    ("transfer_p3_h1_k2", ("transfer", "--p", "3", "--h", "1", "--k", "2",
                           "--class-id", "p3.k2.h1:[(U<1>:idx1,m3),(U<3>:idx3,m2)]")),
    ("transfer_p2_h2_k2_m1", ("transfer", "--p", "2", "--h", "2", "--k", "2",
                              "--m", "1", "--alpha", "(0 1);(2 3)")),
    # classified through the symmetric class table: three orbit types of
    # different kernels
    ("transfer_p2_h2_k3_alpha", ("transfer", "--p", "2", "--h", "2", "--k", "3",
                                 "--alpha", "(0 1 2 3)(4 5);(0 2)(1 3)(6 7)")),
    ("decompose_p2_n2_t1_k2", ("decompose", "--p", "2", "--n", "2", "--t", "1",
                               "--k", "2")),
    ("decompose_p2_n3_t1_k3", ("decompose", "--p", "2", "--n", "3", "--t", "1",
                               "--k", "3")),
    ("decompose_p3_n3_t1_k2", ("decompose", "--p", "3", "--n", "3", "--t", "1",
                               "--k", "2")),
    # formal rank t = 2 and 3, where the Gaussian binomial in the fiber ranks
    # |L|^t [k - l + t - 1 choose t - 1]_p is not 1
    ("decompose_p2_n4_t2_k2", ("decompose", "--p", "2", "--n", "4", "--t", "2",
                               "--k", "2")),
    ("decompose_p2_n4_t3_k3", ("decompose", "--p", "2", "--n", "4", "--t", "3",
                               "--k", "3")),
    # Young subgroups served by the product class table: S8 > S4xS4, S9 > S3^3
    ("transfer_p2_h2_k3", ("transfer", "--p", "2", "--h", "2", "--k", "3", "--class-id",
                           "p2.k3.h2:[(U<0.1|1.0>:idx1,m2),(U<0.1|2.0>:idx2,m1),"
                           "(U<0.2|1.0>:idx2,m1),(U<0.2|1.1>:idx2,m1)]")),
    ("transfer_p3_h2_k2", ("transfer", "--p", "3", "--h", "2", "--k", "2", "--class-id",
                           "p3.k2.h2:[(U<0.1|1.0>:idx1,m3),(U<0.1|3.0>:idx3,m1),"
                           "(U<0.3|1.1>:idx3,m1)]")),
    ("induce_p2_h1_k3", ("induce", "--p", "2", "--h", "1", "--k", "3",
                         "--chi", os.path.join(FIXTURES, "chi_p2_h1_k3.json"))),
    # S8 > S4xS4 at rank 2, the warm benchmark's pair: signed values over
    # mixed denominators, integers and zeros
    ("induce_p2_h2_k3", ("induce", "--p", "2", "--h", "2", "--k", "3",
                         "--chi", os.path.join(FIXTURES, "chi_p2_h2_k3.json"))),
    # a p-typical law at its default x-degree, D = 82, which no digest covers
    ("fgl_p3_n2_k1", ("fgl", "--p", "3", "--n", "2", "--k", "1")),
    # height three at its default x-degree, D = 65, with u-degree room 8
    ("fgl_p2_n3_k1", ("fgl", "--p", "2", "--n", "3", "--k", "1")),
    # two parameters with u-degree room 3: the scaled logarithm drops its
    # u_j^(2^(i-j)) terms past the room, the unit inverse runs at b = 3
    ("fgl_p2_n3_k1_d33_u3", ("fgl", "--p", "2", "--n", "3", "--k", "1", "--deg", "33",
                             "--prec-u", "3")),
    # the brute-force lattice of (Z/8)^4 to level 3 against the closed form
    ("count_sub_h4_p2_m3", ("count-sub", "--h", "4", "--p", "2", "--m", "3")),
    # the acceptance matrix, whose criteria 3 and 4 run the induction tables
    ("reproduce_seed0", ("reproduce", "--seed", "0")),
    ("reproduce_seed1", ("reproduce", "--seed", "1")),
    ("reproduce_seed7", ("reproduce", "--seed", "7")),
]


@pytest.mark.parametrize("name,argv", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_homs_golden_json(capsys, name, argv):
    # canonical JSON must stay byte-identical across refactors of the
    # transfer and decomposition paths
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    with open(os.path.join(FIXTURES, name + ".json")) as fh:
        golden = fh.read()
    assert out == golden
    if name == "homs_p2_h1_k2":
        data = json.loads(out)
        orders = [rec["centralizer_order"] for rec in data["classes"]]
        assert orders == [24, 4, 8, 4]


with open(os.path.join(os.path.dirname(__file__), "..", "perfbench", "digests.json")) as _fh:
    BENCH_DIGESTS = sorted(json.load(_fh).items())


@pytest.mark.parametrize("request_argv,digest", BENCH_DIGESTS,
                         ids=[argv for argv, _ in BENCH_DIGESTS])
def test_benchmark_outputs_match_recorded_digests(capsys, request_argv, digest):
    # the benchmark's fixed requests, some with no golden fixture here
    # (decompose 2 2 0 3 and 3 2 0 2): stdout must keep its recorded sha256
    code, out, _ = run_cli(capsys, *request_argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_decompose_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--p", "2", "--n", "2", "--t", "1",
                           "--k", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 7
    assert data["triangle_ok"] is True
    data.pop("triangle_ok")
    report = report_from_dict(data)
    assert decomp.report_to_dict(report) == data


def test_decompose_table(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--p", "2", "--n", "2", "--t", "1", "--k", "1")
    assert code == 0
    assert "degree=3" in out
    assert "triangle check: ok" in out


def test_transfer_by_alpha(capsys):
    code, out, _ = run_cli(capsys, "transfer", "--p", "2", "--h", "1", "--k", "2",
                           "--alpha", "(0 1 2 3)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["orbits"] == []
    assert data["fixed_cosets"] == 0
    assert data["trivial_if_t_positive"] is False


def test_transfer_by_class_id(capsys):
    code, out, _ = run_cli(capsys, "transfer", "--p", "2", "--h", "1", "--k", "2",
                           "--class-id", "p2.k2.h1:[(U<2>:idx2,m2)]", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["orbits"]) == 1
    assert data["orbits"][0]["index"] == 2
    assert data["centralizer_order"] == 8


def test_induce_subcommand(tmp_path, capsys):
    chi = {"e": "1", "(0 1)": "1", "(2 3)": "1", "(0 1)(2 3)": "1"}
    path = tmp_path / "chi.json"
    path.write_text(json.dumps(chi))
    code, out, _ = run_cli(capsys, "induce", "--p", "2", "--h", "1", "--k", "2",
                           "--chi", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert data["induce"]["p2.k2.h1:[(U<1>:idx1,m4)]"] == "6"
    assert data["induce"] == data["induce_grouped"]


@pytest.mark.parametrize("spelling", ["Infinity", "-Infinity", "1e400"])
def test_induce_refuses_an_infinite_value(tmp_path, capsys, spelling):
    # json loads both spellings as a float inf, which Fraction cannot hold
    path = tmp_path / "chi.json"
    path.write_text('{"e": %s, "(0 1)": "1", "(2 3)": "1", "(0 1)(2 3)": "1"}' % spelling)
    code, out, err = run_cli(capsys, "induce", "--p", "2", "--h", "1", "--k", "2",
                             "--chi", str(path), "--json")
    assert code == 2
    assert out == ""
    assert "bad value" in err


@pytest.mark.parametrize("chi,class_id", [
    # a numerator, then a denominator, of 4301 digits on input
    ({"(0 1)": "1e4300"}, "(0 1)"),
    ({"(0 1)": "1e-4300"}, "(0 1)"),
    # 4300-digit values that print, but whose induced sums do not
    ({cid: "9" * 4300 for cid in ("e", "(0 1)", "(2 3)", "(0 1)(2 3)")}, "p2.k2.h1:"),
])
def test_induce_refuses_a_value_too_long_to_print(tmp_path, capsys, chi, class_id):
    path = tmp_path / "chi.json"
    path.write_text(json.dumps({"e": "1", "(0 1)": "1", "(2 3)": "1", "(0 1)(2 3)": "1", **chi}))
    code, out, err = run_cli(capsys, "induce", "--p", "2", "--h", "1", "--k", "2",
                             "--chi", str(path), "--json")
    assert code == 3
    assert out == ""
    assert "class %s" % class_id in err


def test_induce_rank_two(tmp_path, capsys):
    # class identifiers for a block subgroup are minimal tuples in cycle
    # notation with ";"-separated components
    from transchrome.classfun import class_table
    from transchrome.homclass import lam_group
    from transchrome.perm import block_subgroup

    ht = class_table(block_subgroup(2, 2), lam_group(2, 2, 2))
    chi = {ht.class_id(key): "1/2" for key in ht.classes}
    assert any(";" in cid for cid in chi)
    path = tmp_path / "chi2.json"
    path.write_text(json.dumps(chi))
    code, out, _ = run_cli(capsys, "induce", "--p", "2", "--h", "2", "--k", "2",
                           "--chi", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert data["induce"]["p2.k2.h2:[(U<0.1|1.0>:idx1,m4)]"] == "3"


def test_count_sub(capsys):
    code, out, _ = run_cli(capsys, "count-sub", "--h", "1", "--p", "5", "--m", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1 and data["match"] is True

    code, out, _ = run_cli(capsys, "count-sub", "--h", "2", "--p", "2", "--m", "2")
    assert code == 0
    assert "= 7" in out


def _q_binomial(n, k, q):
    """[n choose k]_q by the q-Pascal rule [n,k] = [n-1,k-1] + q^k [n-1,k]."""
    row = [1]
    for i in range(1, n + 1):
        row = [
            (row[j - 1] if j >= 1 else 0) + (q ** j * row[j] if j < i else 0)
            for j in range(i + 1)
        ]
    return row[k]


def test_count_sub_large_rank_answers_from_closed_form(capsys):
    # the composition sum here had C(69, 39) terms and never finished
    code, out, _ = run_cli(capsys, "count-sub", "--h", "40", "--p", "2", "--m", "30", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["bruteforce"] is None and data["match"] is None
    assert data["count"] == _q_binomial(69, 39, 2)


def test_count_sub_near_the_size_cap_skips_the_brute_force(capsys):
    # h (h + m) bit_length(p) = 315 * 316 * 2, just under COUNT_SIZE_CAP; the
    # brute-force decision on (Z/2)^315 goes through checks.power_exceeds
    code, out, _ = run_cli(capsys, "count-sub", "--h", "315", "--p", "2", "--m", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["bruteforce"] is None and data["match"] is None
    assert data["count"] == 2 ** 315 - 1


@pytest.fixture
def digit_limit_4300():
    """The interpreter's default integer-string limit, restored after."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_count_sub_refuses_a_count_it_could_not_print(monkeypatch, capsys, digit_limit_4300):
    # the count is at least 2^((h-1)m) = 2^59700, of 17 972 digits: refused
    # before the Gaussian binomial, not at printing
    from transchrome import abelian

    def no_work(*args):
        raise AssertionError("the count was computed")

    monkeypatch.setattr(abelian, "_gaussian_binomial", no_work)
    code, out, err = run_cli(capsys, "count-sub", "--h", "200", "--p", "2", "--m", "300", "--json")
    assert code == 3 and out == ""
    assert "more than 4300 digits, the integer-string limit" in err


def test_count_sub_at_the_digit_limit(capsys, digit_limit_4300):
    # at h = 2 the count is 2^(m+1) - 1: 4300 digits at m = 14283, which
    # prints; 4301 at m = 14284, where 2^m still has 4300 digits, so the
    # count is refused once computed
    code, out, _ = run_cli(capsys, "count-sub", "--h", "2", "--p", "2", "--m", "14283", "--json")
    assert code == 0
    count = json.loads(out)["count"]
    assert count == 2 ** 14284 - 1 and len(str(count)) == 4300
    code, out, err = run_cli(capsys, "count-sub", "--h", "2", "--p", "2", "--m", "14284", "--json")
    assert code == 3 and out == ""
    assert "more than 4300 digits" in err


def test_fgl_subcommand(capsys):
    code, out, _ = run_cli(capsys, "fgl", "--p", "2", "--law", "multiplicative",
                           "--k", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["torsion_rank"] == 4
    assert data["expected_rank"] == 4
    assert any(t["x_exponent"] == 4 for t in data["series"])


def test_fgl_height2(capsys):
    code, out, _ = run_cli(capsys, "fgl", "--p", "2", "--n", "2", "--k", "1",
                           "--deg", "6", "--prec-u", "4")
    assert code == 0
    assert "torsion rank: 4 (expected 4)" in out


def test_exit_code_usage(capsys):
    assert run_cli(capsys, "homs", "--p", "2", "--h", "1")[0] == 1
    assert run_cli(capsys, "nonsense")[0] == 1


def test_transfer_refuses_both_class_id_and_alpha(capsys):
    # one class per request: naming it twice is a usage error, not a
    # silent choice of one of the two
    class_id = "p2.k2.h1:[(U<1>:idx1,m2),(U<2>:idx2,m1)]"
    code, out, err = run_cli(capsys, "transfer", "--p", "2", "--h", "1", "--k", "2",
                             "--class-id", class_id, "--alpha", "(0 1)(2 3)")
    assert code == 1
    assert out == ""
    assert "not allowed with argument" in err
    for flag, value in (("--class-id", class_id), ("--alpha", "(0 1)(2 3)")):
        assert run_cli(capsys, "transfer", "--p", "2", "--h", "1", "--k", "2", flag, value)[0] == 0


def test_exit_code_domain(capsys):
    code, _, err = run_cli(capsys, "count-sub", "--h", "1", "--p", "4", "--m", "2")
    assert code == 2
    code, _, err = run_cli(capsys, "transfer", "--p", "2", "--h", "1", "--k", "2",
                           "--class-id", "nope")
    assert code == 2
    # two cycles sharing a point: the message names the point
    code, _, err = run_cli(capsys, "transfer", "--p", "2", "--h", "1", "--k", "2",
                           "--alpha", "(0 1)(1 2)")
    assert code == 2
    assert "point 1 appears in two cycles" in err
    # D = 5 <= 2^12: refused before [2^12](x) is built
    code, _, err = run_cli(capsys, "fgl", "--p", "2", "--n", "1", "--k", "12")
    assert code == 2
    assert "D > p^{kn}" in err
    # an explicit --deg 0 is refused as given, never replaced by the default
    for law in (("--law", "multiplicative"), ("--n", "2")):
        code, out, err = run_cli(capsys, "fgl", "--p", "2", *law, "--deg", "0")
        assert code == 2 and out == ""
        assert "need D >= p" in err


def test_exit_code_resource(capsys):
    code, _, err = run_cli(capsys, "homs", "--p", "2", "--h", "1", "--k", "9")
    assert code == 3


def test_huge_parameters_exit_3_before_work(capsys):
    # trial division of a 19-digit prime, forming p^k, 2^n or p^(kh) for a
    # huge exponent, a count of size h(h+m)log2(p) = 720000, or the p-typical
    # law at p = 7, n = 2 and its default degree D = 2402, or the hom classes
    # at (p, h, k) = (2, 3, 4) would run for seconds to minutes before any
    # size cap
    huge_p = "1000000000000000003"
    start = time.perf_counter()
    for argv in [
        ("decompose", "--p", huge_p, "--n", "2", "--t", "1", "--k", "1"),
        ("homs", "--p", huge_p, "--h", "1", "--k", "1"),
        ("count-sub", "--h", "2", "--p", huge_p, "--m", "1"),
        ("decompose", "--p", "2", "--n", "2", "--t", "1", "--k", "1000000000000"),
        ("decompose", "--p", "2", "--n", "1000000000", "--t", "999999999", "--k", "1"),
        ("homs", "--p", "2", "--h", "1000000000000", "--k", "1"),
        ("count-sub", "--h", "600", "--p", "2", "--m", "600"),
        ("fgl", "--p", "7", "--n", "2"),
        # 984 771 hom classes would be enumerated first
        ("homs", "--p", "2", "--h", "3", "--k", "4"),
        ("transfer", "--p", "2", "--h", "3", "--k", "4", "--m", "1", "--alpha", "e;e;e"),
        ("induce", "--p", "2", "--h", "3", "--k", "4", "--chi", "unused.json"),
        # 8.39 * 10^6, 7.18 * 10^6 and 3.36 * 10^7 orbit-kernel elements
        # would be listed first
        ("homs", "--p", "2", "--h", "12", "--k", "1"),
        ("homs", "--p", "3", "--h", "8", "--k", "1"),
        ("transfer", "--p", "2", "--h", "13", "--k", "1", "--m", "0", "--alpha", ";".join("e" * 13)),
    ]:
        code, _, err = run_cli(capsys, *argv, "--json")
        assert code == 3, argv
        assert "resource limit" in err
    assert time.perf_counter() - start < 5


def test_transfer_without_a_class_exits_2_before_listing_classes(monkeypatch, capsys):
    # listing the 4747 hom classes of (2, 6, 2) takes seconds: a request
    # naming no class is refused before it
    from transchrome import homclass

    def refuse(*args):
        raise AssertionError("listed the hom classes of %s" % (args,))

    monkeypatch.setattr(homclass, "enumerate_hom_classes", refuse)
    code, out, err = run_cli(capsys, "transfer", "--p", "2", "--h", "6", "--k", "2", "--m", "1")
    assert code == 2
    assert out == ""
    assert "need --class-id or --alpha" in err


def test_transfer_alpha_arity_exits_2_before_listing_classes(monkeypatch, capsys):
    # a wrong number of --alpha components is refused before the 4747 hom
    # classes of (2, 6, 2) are listed, and before the caps of (2, 3, 4)
    from transchrome import homclass

    def refuse(*args):
        raise AssertionError("listed the hom classes of %s" % (args,))

    monkeypatch.setattr(homclass, "enumerate_hom_classes", refuse)
    for params, h in (("--p 2 --h 6 --k 2 --m 1", 6), ("--p 2 --h 3 --k 4 --m 1", 3)):
        code, out, err = run_cli(capsys, "transfer", *params.split(), "--alpha", "e;e")
        assert (code, out) == (2, ""), params
        assert "--alpha needs %d component(s)" % h in err


def test_transfer_over_the_factor_cap_exits_3_before_reading_g(monkeypatch, capsys):
    # H = Sym(8)^2: its factor table Sym(8), of 8! > 10^4 elements, refuses
    # before the table of G = Sym(16) is built
    from transchrome import classfun

    def refuse(self, lam):
        raise AssertionError("built the class table of Sym(%d)" % lam.p ** lam.k)

    monkeypatch.setattr(classfun.SymmetricClassTable, "__init__", refuse)
    for h in ("1", "2"):
        params = ("--p", "2", "--h", h, "--k", "4", "--m", "3")
        for argv in (("transfer", *params, "--alpha", ";".join("e" * int(h))),
                     ("induce", *params, "--chi", "unused.json")):
            code, _, err = run_cli(capsys, *argv)
            assert code == 3, argv
            assert "group of order 40320 too large for exhaustive class table" in err


def test_transfer_checks_caps_before_building_groups(monkeypatch, capsys):
    from transchrome import cli

    def refuse(degree):
        raise AssertionError("Sym(%d) built before the size caps" % degree)

    monkeypatch.setattr(cli.perm, "symmetric_group", refuse)
    params = ("--p", "2", "--h", "1", "--k", "20")
    assert run_cli(capsys, "transfer", *params, "--alpha", "(0 1)")[0] == 3
    assert run_cli(capsys, "induce", *params, "--chi", "unused.json")[0] == 3


def test_transfer_at_m_equal_k_builds_nothing_before_the_class_resolves(monkeypatch, capsys):
    # H = Sym(9) is the one-block Young subgroup: an unknown class id is
    # refused before any element of H (or G) is enumerated
    from transchrome.perm import YoungSubgroup

    def refuse(self):
        raise AssertionError("enumerated the elements of %r" % self)

    monkeypatch.setattr(YoungSubgroup, "iter_elements", refuse)
    params = ("--p", "3", "--h", "1", "--k", "2", "--m", "2")
    code, _, err = run_cli(capsys, "transfer", *params, "--class-id", "nope")
    assert code == 2
    assert "unknown class id" in err


def test_transfer_at_m_equal_k_answers_without_enumerating_h(monkeypatch, capsys):
    # H = Sym(9): at alpha = e the stabilizer proof reads C_H(e) = Sym(9)
    # off two generators and their stabilizer chain, not its 9! elements
    from transchrome.perm import YoungSubgroup

    def refuse(self):
        raise AssertionError("enumerated the elements of %r" % self)

    monkeypatch.setattr(YoungSubgroup, "iter_elements", refuse)
    code, out, _ = run_cli(capsys, "transfer", "--p", "3", "--h", "1", "--k", "2", "--m", "2",
                           "--alpha", "e", "--json")
    assert code == 0
    with open(os.path.join(FIXTURES, "transfer_p3_h1_k2_m2_e.json")) as fh:
        assert out == fh.read()


def test_json_outputs_are_canonical(capsys):
    _, out1, _ = run_cli(capsys, "homs", "--p", "2", "--h", "2", "--k", "1", "--json")
    _, out2, _ = run_cli(capsys, "homs", "--p", "2", "--h", "2", "--k", "1", "--json")
    assert out1 == out2
    parsed = json.loads(out1)
    assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == out1


def test_cli_ignores_the_removed_cap_variable(monkeypatch, capsys):
    # the group-order cap is a constant: the variable that once set it is
    # not read, so even a value it refused leaves a request alone
    monkeypatch.setenv("TRANSCHROME_MAX_ELEMENTS", "0")
    code, out, _ = run_cli(capsys, "count-sub", "--h", "1", "--p", "3", "--m", "2")
    assert code == 0
    assert "= 1" in out
    assert "TRANSCHROME_MAX_ELEMENTS" not in build_parser().format_help()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "transchrome.cli", "count-sub", "--h", "1", "--p", "3", "--m", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "= 1" in proc.stdout


LAYERS = ("abelian", "accept", "classfun", "decomp", "fgl", "homclass", "perm")


def test_importing_the_cli_runs_no_layer_module():
    # a lazy module is a ModuleType subclass until its code has run
    code = (
        "import sys, types, transchrome.cli\n"
        "ran = lambda: [n for n in %r if type(sys.modules.get('transchrome.' + n)) is types.ModuleType]\n"
        "print(ran())\n"
        "transchrome.cli.fgl.check_work\n"
        "print(ran())\n"
    ) % (LAYERS,)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['fgl']"]


@pytest.mark.parametrize("argv,layers", [
    (("decompose", "--p", "2", "--n", "3", "--t", "1", "--k", "3"), None),
    (("count-sub", "--h", "4", "--p", "2", "--m", "3"), ["abelian"]),
    (("reproduce", "--seed", "1"), None),
])
def test_cold_requests_load_neither_dataclasses_nor_inspect(argv, layers):
    # the records are plain classes: dataclasses would load inspect, ast,
    # dis and tokenize, and compile each record's methods at import
    code = (
        "import os, sys, types\n"
        "before = set(sys.modules)\n"
        "import transchrome.cli\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        "assert transchrome.cli.main(%r) == 0\n"
        "loaded = sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))\n"
        "ran = [n for n in %r if type(sys.modules.get('transchrome.' + n)) is types.ModuleType]\n"
        "print(loaded, ran, file=sys.__stdout__)\n"
    ) % (list(argv) + ["--json"], LAYERS)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("[] "), proc.stdout
    if layers is not None:
        assert proc.stdout.strip() == "[] %r" % (layers,)


@pytest.mark.parametrize("argv,loads", [
    (("decompose", "--p", "2", "--n", "3", "--t", "1", "--k", "3"), False),
    (("decompose", "--p", "3", "--n", "3", "--t", "1", "--k", "2"), False),
    (("transfer", "--p", "2", "--h", "2", "--k", "3", "--alpha", "(0 1 2 3)(4 5);(0 2)(1 3)(6 7)"),
     False),
    (("transfer", "--p", "3", "--h", "1", "--k", "2", "--m", "2", "--alpha", "e"), False),
    (("reproduce", "--seed", "1"), True),
])
def test_only_requests_that_build_a_fraction_load_fractions(argv, loads):
    # a decompose or transfer request builds no Fraction, so it does not
    # load fractions, decimal and numbers; the acceptance matrix builds some
    code = (
        "import os, sys\n"
        "import transchrome.cli\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        "assert transchrome.cli.main(%r) == 0\n"
        "print('fractions' in sys.modules, file=sys.__stdout__)\n"
    ) % (list(argv) + ["--json"],)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(loads)


PACKAGE_NAMES = {
    "abelian": ["Ambient", "AbSubgroup", "annihilator", "count_sublattices",
                "enumerate_subgroups", "sub_leq_count"],
    "homclass": ["CommutingTuple", "HomClass", "classify", "centralizer_order", "coset_fiber",
                 "dual_image", "enumerate_hom_classes", "is_isotypic", "lam_group",
                 "minimal_level", "realize"],
    "classfun": ["GenClassFunction", "TransferDatum", "class_table", "ideal_trivial", "induce",
                 "induce_grouped", "inner_product", "restrict", "transfer_datum",
                 "verify_mainthm_instance"],
    "decomp": ["DecompositionReport", "decompose", "fiber_rank", "verify_triangle"],
    "perm": ["Perm", "PermGroup", "block_subgroup", "centralizer", "generate", "symmetric_group"],
}
# test-only names, now in tests/oracles.py
NOT_EXPORTED = ["Coset", "conjugating_element", "coset_orbits", "fixed_cosets", "left_cosets"]


def test_package_names_resolve_to_their_layer_objects():
    import importlib

    import transchrome

    for module, names in PACKAGE_NAMES.items():
        layer = importlib.import_module("transchrome." + module)
        for name in names:
            assert getattr(transchrome, name) is getattr(layer, name)
            assert name in dir(transchrome)
    assert transchrome.__version__ == "0.1.0"
    for name in ["no_such_name"] + NOT_EXPORTED:
        with pytest.raises(AttributeError):
            getattr(transchrome, name)
    # the CLI's old alias of classfun.class_table resolves on use
    from transchrome import classfun, cli

    assert cli.class_table is classfun.class_table
    with pytest.raises(AttributeError):
        cli.no_such_name


def test_every_public_library_name_is_used_or_exported():
    # a public module-level function or class that no other top-level
    # statement of the library names, and that the package does not export,
    # runs only in the tests: it belongs in tests/oracles.py.  An import
    # alone is not a use.  Names are matched, not objects, so an attribute
    # or method of the same name counts as one
    import ast
    import pathlib

    import transchrome

    package = pathlib.Path(transchrome.__file__).parent
    statements = []  # (module, top-level statement, the names it mentions)
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            mentioned = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            mentioned |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            statements.append((path.stem, stmt, mentioned))
    exported = {name for names in transchrome._EXPORTS.values() for name in names}
    unused = [
        "%s.%s" % (module, stmt.name)
        for module, stmt, _ in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and stmt.name not in exported
        and not any(stmt.name in names for _, other, names in statements if other is not stmt)
    ]
    assert unused == []


def test_no_nested_function_of_the_library_names_itself():
    # a nested def that calls itself holds its own cell, so every call
    # leaves a reference cycle for the cyclic collector: walk an explicit
    # stack instead
    import ast
    import pathlib

    import transchrome

    package = pathlib.Path(transchrome.__file__).parent
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    found = []
    for path in sorted(package.glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text())):
            if not isinstance(outer, functions):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if any(isinstance(node, ast.Name) and node.id == inner.name
                       for node in ast.walk(inner) if node is not inner):
                    found.append("%s:%d %s" % (path.name, inner.lineno, inner.name))
    assert found == []


# -- in-process CLI fuzz: every argv gets an exit code, never a traceback --

PRIMES = st.sampled_from([-2, 0, 1, 2, 3, 4, 5, 6, 11])
EXPONENTS = st.sampled_from([-1, 0, 1, 2, 3, 12, 13])
SMALL = st.sampled_from([-1, 0, 1, 2])
ALPHAS = st.sampled_from([
    "e", "e;e", "(0 1)", "(0 1)(2 3)", "(0 1 2 3)", "(0 1 2)", "(0 1);(2 3)",
    "(0 1);(1 2)", "(0 9)", "(0 0)", "((", "", ";", "(0 1);e;(2 3)", "(a b)",
])
CHI_FILES = st.sampled_from([
    '{"e": "1"}', '{"e": "1/0"}', '{"e": null}', '{"e": [1]}', "[1, 2]", "{",
    '"e"', "{}", '{"(0 1)": "x"}', None,
])


def _argv(command, **flags):
    argv = [command]
    for name, value in flags.items():
        if value is not None:
            argv += ["--" + name.replace("_", "-"), str(value)]
    return argv


def _fuzz_argv():
    group = dict(p=PRIMES, h=SMALL, k=EXPONENTS)
    block = dict(group, m=st.sampled_from([None, -1, 0, 1, 2, 3, 4, 14]))
    return st.one_of(
        st.builds(lambda **f: _argv("homs", **f), **group),
        st.builds(lambda **f: _argv("decompose", **f), p=PRIMES, n=SMALL, t=SMALL, k=EXPONENTS),
        st.builds(lambda **f: _argv("transfer", **f), alpha=ALPHAS, **block),
        st.builds(lambda **f: _argv("transfer", **f), class_id=st.sampled_from(
            ["nope", "p2.k2.h1:[(U<1>:idx1,m4)]"]), **block),
        st.builds(lambda chi, **f: (_argv("induce", **f), chi), chi=CHI_FILES, **block),
        st.builds(lambda **f: _argv("count-sub", **f),
                  h=SMALL, p=PRIMES, m=st.sampled_from([-1, 0, 1, 2, 3])),
        st.builds(lambda **f: _argv("fgl", **f), p=PRIMES, n=SMALL, k=EXPONENTS,
                  deg=st.sampled_from([None, -1, 0, 1, 4, 8, 12, 16]),
                  law=st.sampled_from([None, "multiplicative"]),
                  prec_p=st.sampled_from([None, -1, 0, 1]),
                  prec_u=st.sampled_from([None, 0, 1])),
    )


@settings(max_examples=150, deadline=5000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_fuzz_argv())
def test_cli_fuzz_exits_with_a_documented_code(tmp_path, capsys, case):
    # bounded ranges keep every example under a few seconds: no subprocess,
    # no slow hom-class enumeration; fgl's work cap refuses slow laws
    if isinstance(case, tuple):
        argv, chi = case
        path = tmp_path / "chi.json"
        if chi is None:
            path = tmp_path / "missing.json"
        else:
            path.write_text(chi)
        argv = argv + ["--chi", str(path)]
    else:
        argv = case
    code = main(argv + ["--json"])
    capsys.readouterr()
    assert code in (0, 1, 2, 3, 4), argv
