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
from transchrome.cli import main

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
    ("transfer_p2_h1_k2_alpha", ("transfer", "--p", "2", "--h", "1", "--k", "2",
                                 "--alpha", "(0 1)(2 3)")),
    ("transfer_p3_h1_k2", ("transfer", "--p", "3", "--h", "1", "--k", "2",
                           "--class-id", "p3.k2.h1:[(U<1>:idx1,m3),(U<3>:idx3,m2)]")),
    ("transfer_p2_h2_k2_m1", ("transfer", "--p", "2", "--h", "2", "--k", "2",
                              "--m", "1", "--alpha", "(0 1);(2 3)")),
    ("decompose_p2_n2_t1_k2", ("decompose", "--p", "2", "--n", "2", "--t", "1",
                               "--k", "2")),
    ("decompose_p2_n3_t1_k3", ("decompose", "--p", "2", "--n", "3", "--t", "1",
                               "--k", "3")),
    ("decompose_p3_n3_t1_k2", ("decompose", "--p", "3", "--n", "3", "--t", "1",
                               "--k", "2")),
    # Young subgroups served by the product class table: S8 > S4xS4, S9 > S3^3
    ("transfer_p2_h2_k3", ("transfer", "--p", "2", "--h", "2", "--k", "3", "--class-id",
                           "p2.k3.h2:[(U<0.1|1.0>:idx1,m2),(U<0.1|2.0>:idx2,m1),"
                           "(U<0.2|1.0>:idx2,m1),(U<0.2|1.1>:idx2,m1)]")),
    ("transfer_p3_h2_k2", ("transfer", "--p", "3", "--h", "2", "--k", "2", "--class-id",
                           "p3.k2.h2:[(U<0.1|1.0>:idx1,m3),(U<0.1|3.0>:idx3,m1),"
                           "(U<0.3|1.1>:idx3,m1)]")),
    ("induce_p2_h1_k3", ("induce", "--p", "2", "--h", "1", "--k", "3",
                         "--chi", os.path.join(FIXTURES, "chi_p2_h1_k3.json"))),
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
    report = decomp.report_from_dict(data)
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


def test_exit_code_domain(capsys):
    code, _, err = run_cli(capsys, "count-sub", "--h", "1", "--p", "4", "--m", "2")
    assert code == 2
    code, _, err = run_cli(capsys, "transfer", "--p", "2", "--h", "1", "--k", "2",
                           "--class-id", "nope")
    assert code == 2
    # D = 5 <= 2^12: refused before [2^12](x) is built
    code, _, err = run_cli(capsys, "fgl", "--p", "2", "--n", "1", "--k", "12")
    assert code == 2
    assert "D > p^{kn}" in err


def test_exit_code_resource(capsys):
    code, _, err = run_cli(capsys, "homs", "--p", "2", "--h", "1", "--k", "9")
    assert code == 3


def test_huge_parameters_exit_3_before_work(capsys):
    # trial division of a 19-digit prime, forming p^k, 2^n or p^(kh) for a
    # huge exponent, a count of size h(h+m)log2(p) = 720000, or the p-typical
    # law at p = 17 and its default degree D = 290, or the hom classes at
    # (p, h, k) = (2, 3, 4) would run for seconds to minutes before any size
    # cap
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
        ("fgl", "--p", "17", "--n", "1"),
        # 984 771 hom classes would be enumerated first
        ("homs", "--p", "2", "--h", "3", "--k", "4"),
        ("transfer", "--p", "2", "--h", "3", "--k", "4", "--m", "1", "--alpha", "e;e;e"),
        ("induce", "--p", "2", "--h", "3", "--k", "4", "--chi", "unused.json"),
    ]:
        code, _, err = run_cli(capsys, *argv, "--json")
        assert code == 3, argv
        assert "resource limit" in err
    assert time.perf_counter() - start < 5


def test_transfer_checks_caps_before_building_groups(monkeypatch, capsys):
    from transchrome import cli

    def refuse(degree):
        raise AssertionError("Sym(%d) built before the size caps" % degree)

    monkeypatch.setattr(cli, "symmetric_group", refuse)
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


def test_json_outputs_are_canonical(capsys):
    _, out1, _ = run_cli(capsys, "homs", "--p", "2", "--h", "2", "--k", "1", "--json")
    _, out2, _ = run_cli(capsys, "homs", "--p", "2", "--h", "2", "--k", "1", "--json")
    assert out1 == out2
    parsed = json.loads(out1)
    assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == out1


def test_env_var_overrides_group_cap(monkeypatch, capsys):
    from transchrome.errors import BadParameters
    from transchrome.perm import Perm, generate, max_group_elements

    monkeypatch.setenv("TRANSCHROME_MAX_ELEMENTS", "10")
    assert max_group_elements() == 10
    gens = [Perm.from_cycles("(0 1)", 4), Perm.from_cycles("(0 1 2 3)", 4)]
    with pytest.raises(Exception):
        generate(4, gens)
    for bad in ("not-a-number", "0", "-5"):
        monkeypatch.setenv("TRANSCHROME_MAX_ELEMENTS", bad)
        with pytest.raises(BadParameters, match="TRANSCHROME_MAX_ELEMENTS"):
            max_group_elements()
        code, _, err = run_cli(capsys, "count-sub", "--h", "1", "--p", "3", "--m", "2")
        assert code == 1
        assert "TRANSCHROME_MAX_ELEMENTS" in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "transchrome.cli", "count-sub", "--h", "1", "--p", "3", "--m", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "= 1" in proc.stdout


LAYERS = ("abelian", "accept", "classfun", "decomp", "fgl", "homclass")


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
    assert proc.stdout.splitlines() == ["[]", "['abelian', 'fgl']"]


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
    "perm": ["Coset", "Perm", "PermGroup", "block_subgroup", "centralizer",
             "conjugating_element", "coset_orbits", "fixed_cosets", "generate", "left_cosets",
             "symmetric_group"],
}


def test_package_names_resolve_to_their_layer_objects():
    import importlib

    import transchrome

    for module, names in PACKAGE_NAMES.items():
        layer = importlib.import_module("transchrome." + module)
        for name in names:
            assert getattr(transchrome, name) is getattr(layer, name)
            assert name in dir(transchrome)
    assert transchrome.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        transchrome.no_such_name
    # the CLI's old alias of classfun.class_table resolves on use
    from transchrome import classfun, cli

    assert cli.class_table is classfun.class_table
    with pytest.raises(AttributeError):
        cli.no_such_name


# -- in-process CLI fuzz: every argv gets an exit code, never a traceback --

PRIMES = st.sampled_from([-2, 0, 1, 2, 3, 4, 5, 6])
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
    # m = k is left out: H is then all of Sym(p^k), and at alpha = e the
    # stabilizer check visits every element of C_H(e) = H (9! = 362880 at
    # p^k = 9, about 4.6 s)
    block = dict(group, m=st.sampled_from([None, -1, 0, 1, 4, 14]))
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
