import json
import os
import shutil
import subprocess
import sys

import pytest

import procs
import run
import workloads

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def test_killed_child_and_its_children_are_gone(tmp_path):
    # the grandchild holds stdout open, so run() returns only once it is dead
    code = (
        "import subprocess, sys, time; "
        "c = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']); "
        "print(c.pid, flush=True); time.sleep(60)"
    )
    result = procs.run([sys.executable, "-c", code], 1.0, dict(os.environ), str(tmp_path))
    assert result.timed_out
    assert result.latency_s < 30
    with pytest.raises(ProcessLookupError):
        os.kill(result.pid, 0)


def test_killed_request_counts_as_failed_not_wrong(monkeypatch, tmp_path):
    hang = workloads._count_sub(40, 2, 30, 1.0, fixed=False)
    quick = workloads._count_sub(2, 2, 1, 30, fixed=False)
    monkeypatch.setitem(workloads.COLD, "hang-and-quick", lambda seed: [hang, quick])
    results = []
    real_run = procs.run

    def spy(*args, **kwargs):
        results.append(real_run(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(procs, "run", spy)
    monkeypatch.setattr(run, "TRACE_DIR", str(tmp_path))
    outcome, metrics = run.run_cold("hang-and-quick", 0, 0.0, trace=True)
    assert outcome == {"correct": True, "attempted": 4, "failed": 2}
    assert metrics["fail_frac"] == 0.5
    assert [r.timed_out for r in results].count(True) == 2
    for r in results:
        with pytest.raises(ProcessLookupError):
            os.kill(r.pid, 0)


def test_benchmark_json_names_what_run_prints():
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in run.PER_LAYER.items()
    }


def test_every_seed_independent_request_has_a_recorded_digest():
    fixed = {req.key for make in workloads.COLD.values() for req in make(0) if req.fixed}
    assert set(workloads.load_digests()) == fixed


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCHMARK_JSON, tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "fgl-cold", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == b""
