"""Acceptance gate: every exit criterion at its stated (exact) tolerance.

Each test prints one pass/fail line; ``transchrome reproduce`` runs the
same functions through the CLI.
"""

import pytest

from transchrome import accept
from transchrome.cli import main


@pytest.mark.parametrize(
    "number,name",
    [(num, name) for num, name, _ in accept.CRITERIA],
    ids=["%02d-%s" % (num, name.replace(" ", "-")) for num, name, _ in accept.CRITERIA],
)
def test_criterion(number, name):
    result = accept.run_criterion(number)
    print("[%s] %02d %s: %s" % ("PASS" if result.ok else "FAIL", number, name, result.detail))
    assert result.ok, result.detail


def test_reproduce_cli_exit_code(capsys):
    code = main(["reproduce"])
    out = capsys.readouterr().out
    assert "11/11 criteria passed" in out
    assert code == 0


def test_criterion_11_fails_when_the_lattice_walk_drops_a_subgroup(monkeypatch):
    # the walk of (Z/9)^2 loses one of the 13 order-9 subgroups: criterion 11
    # must report the (h, p, m) = (2, 3, 2) triple, not pass on it
    from transchrome import abelian

    walk = abelian._subgroup_levels

    def dropping(ambient, top):
        levels = walk(ambient, top)
        if (ambient.p, ambient.h) == (3, 2):
            levels[2] = levels[2][1:]
        return levels

    monkeypatch.setattr(abelian, "_subgroup_levels", dropping)
    result = accept.run_criterion(11)
    assert not result.ok
    assert result.detail == "93 (h,p,m) triples cross-checked; (2,3,2): 13 != 12"
