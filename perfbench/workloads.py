"""The cold workloads: CLI requests, their time limits and known answers.

Every cold request is one fresh ``transchrome ... --json`` process, because
the package's module-level caches would otherwise answer repeats from
memory.  A request's limit is about four times its time at the commit that
defined the benchmark; a request past it is killed and counts as failed.
Requests whose stdout does not depend on the seed are also checked against
the sha256 digests in ``digests.json``, recorded at that commit.

Each request takes at most a few seconds, so that a run of 30 seconds
holds several samples of every request and its median is steady; the
ROADMAP's heavier probes (``decompose 2 4 1 3`` at about 30 s, ``3 3 0 2``
and ``fgl --p 3 --n 2`` at its default degree at about 10 s, ``count-sub
12 2 12`` at about 5 s) are replaced by smaller instances of the same code
paths.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

import oracle

DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


@dataclass(frozen=True)
class Request:
    argv: tuple
    limit_s: float
    check: Callable  # parsed stdout -> list of problems
    fixed: bool = True  # stdout is the same for every seed, so its digest is known

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _decompose(p, n, t, k, limit_s):
    argv = ("decompose", "--p", str(p), "--n", str(n), "--t", str(t), "--k", str(k), "--json")
    return Request(argv, limit_s, oracle.check_decompose)


def _count_sub(h, p, m, limit_s, fixed=True):
    argv = ("count-sub", "--h", str(h), "--p", str(p), "--m", str(m), "--json")
    return Request(argv, limit_s, oracle.check_count_sub, fixed)


def _fgl(p, n, k, limit_s, deg=None, law="ptypical"):
    argv = ["fgl", "--p", str(p), "--k", str(k)]
    if law == "multiplicative":
        argv += ["--law", law]
        n = 1
    else:
        argv += ["--n", str(n)]
    if deg is not None:
        argv += ["--deg", str(deg)]
    argv.append("--json")
    return Request(tuple(argv), limit_s, lambda data: oracle.check_fgl(data, p, n, k))


def _reproduce(seed, limit_s):
    argv = ("reproduce", "--json", "--seed", str(seed))
    return Request(argv, limit_s, lambda data: oracle.check_reproduce(data, seed), fixed=False)


def decompose_cold(seed):
    """Class tables, transfer data and stabilizer checks in ``classfun`` and
    ``homclass.dual_image`` do the work; ``fgl`` does none."""
    return [
        _decompose(2, 3, 1, 3, 10),
        _decompose(2, 2, 0, 3, 10),
        _decompose(3, 2, 0, 2, 10),
        _decompose(3, 3, 1, 2, 10),
    ]


def acceptance_cold(seed):
    """The ``abelian`` subgroup lattice does most of the work.  count-sub
    (4,2,3) and (2,3,4) include the brute-force cross-check, and (10,2,10)
    is a long composition sum: the path on which the known count-sub hang
    (40,2,30) spends its time, at a size that finishes, so that every
    request of the workload succeeds and a faster composition sum shows in
    its latency."""
    return [
        _reproduce(seed, 40),
        _count_sub(4, 2, 3, 10),
        _count_sub(2, 3, 4, 10),
        _count_sub(10, 2, 10, 10),
    ]


def fgl_cold(seed):
    """Only ``fgl`` works here: the bypass workload for a class-table or
    lattice change."""
    return [
        _fgl(3, 2, 1, 10, deg=40),
        _fgl(2, 3, 1, 20, deg=33),
        _fgl(2, 2, 2, 10),
        _fgl(5, 1, 2, 10, deg=30),
        _fgl(2, 1, 2, 10, law="multiplicative"),
    ]


COLD = {
    "decompose-cold": decompose_cold,
    "acceptance-cold": acceptance_cold,
    "fgl-cold": fgl_cold,
}


def load_digests() -> dict:
    with open(DIGESTS_FILE) as fh:
        return json.load(fh)


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def check_output(req: Request, stdout: bytes, digests: dict) -> list:
    """Problems with a finished request's stdout: digest, then known answer."""
    problems = []
    if req.fixed and digests.get(req.key) != digest(stdout):
        problems.append("stdout digest differs from the recorded one")
    try:
        data = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not JSON"]
    try:
        return problems + req.check(data)
    except (KeyError, TypeError) as exc:
        return problems + ["unexpected JSON shape: %r" % exc]
