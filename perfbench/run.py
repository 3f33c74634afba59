"""The transchrome benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the package is imported from ./src.
Every workload is a closed loop with one client; children run one at a time.

Workloads (see ``workloads.py`` and ``warm.py``):

- decompose-cold, acceptance-cold, fgl-cold: every request is a fresh
  ``transchrome ... --json`` interpreter.  A pass is the workload's request
  list in a seeded order; after the first pass, requests run while they fit
  in S seconds.
- library-warm: one long-lived process builds its tables once, then answers
  seeded queries in passes of 1000 for S seconds.  Set-up runs twice more
  in processes of its own so that its median is steady.

Every output is checked against a known answer; a request that exits
wrongly, answers wrongly or runs past its limit is failed.  ``correct`` is
false when any answer was wrong; a killed request is failed, not wrong.

End-to-end metrics (--trace 0), from untraced runs.  Their times are
reference seconds: measured times scaled by how fast a fixed loop ran
between the requests of the same run (``probe.py``), so that the speed the
shared processor happens to have during a run cancels.  Within a run, the
latencies of a request are averaged, not taken at their median: the
samples of one request fall into clusters set by what else shares the
processor, and a median jumps between clusters where a mean moves smoothly.

- setup_s: cold, interpreter start plus ``import transchrome`` (median over
  requests); warm, start plus import plus table build (median of three).
- wall_s: one pass.  Cold: the sum over requests of each one's mean
  latency; a killed request has none and counts only as failed.  Warm: the
  mean pass of 1000 queries.
- slowest_s: the largest mean latency of a request (cold) or query kind.
- cpu_s: user + sys of one pass: cold, the sum over requests of each
  one's mean from ``os.wait4``; warm, the worker's process time (mean
  pass).
- peak_rss_mb: cold, the largest peak RSS of a finished request; warm,
  the worker's peak RSS after set-up and the first pass.
- rss_growth_mb: cold, the most a request's peak RSS grows past the bare
  interpreter, by the import and the work; warm, peak RSS growth after
  set-up per 1000 queries.
- queries_per_s: requests per second of one pass (cold), queries per second
  of the loop (warm).
- query_p50_ms, query_p99_ms: cold, over the requests' mean latencies;
  warm, over every query latency (at least 1000 of them).

Per-layer metrics (--trace 1) come from a run that makes every request
twice, untraced then traced (cold), or runs an untraced worker and then a
traced one for half the time each (warm).  Times and counts are per pass;
times are as measured, not scaled by the probe.
``spans.py`` names the traced functions; each layer's ``self_s`` is the
time in its spans minus their child spans, so the layers' self times and
``untraced_s`` add up to the traced ``wall_s``.  ``trace_overhead_frac`` is
traced over untraced ``wall_s`` minus one; ``fail_frac`` is failed over
attempted.  The spans of a traced run are written to
``.bench_trace/<workload>-seed<N>.json`` when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import sys
import time

import probe
import procs
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")

WORKLOADS = ("decompose-cold", "acceptance-cold", "fgl-cold", "library-warm")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "slowest_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "rss_growth_mb": "MB",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
}

# per-layer metric -> (unit, how, what).  how is "self" or "calls" for a
# layer's spans, "time" or "count" for the outermost time or the calls of
# the named functions, "prefix" for the time of functions named so, "cache"
# for a cache_info sum, "untraced" for request time outside every span;
# ratios are computed from whole runs.
PER_LAYER = {
    "classfun.self_s": ("s", "self", "classfun"),
    "classfun.class_table_s": ("s", "time", ("classfun.class_table",)),
    "classfun.class_table_misses": ("count", "cache", "class_table_misses"),
    "classfun.transfer_datum_s": ("s", "time", ("classfun.transfer_datum",)),
    "classfun.transfer_datum_calls": ("count", "count", ("classfun.transfer_datum",)),
    "classfun.induce_s": ("s", "time", ("classfun.induce", "classfun.induce_grouped")),
    "abelian.self_s": ("s", "self", "abelian"),
    "abelian.calls": ("count", "calls", "abelian"),
    "abelian.lattice_s": ("s", "time", ("abelian._SubgroupLattice.up_to",)),
    "abelian.span_calls": ("count", "count", ("abelian.AbSubgroup.span",)),
    "homclass.self_s": ("s", "self", "homclass"),
    "homclass.dual_image_s": ("s", "time", ("homclass.dual_image",)),
    "homclass.classify_calls": ("count", "count", ("homclass.classify",)),
    "homclass.realize_calls": ("count", "count", ("homclass.realize",)),
    "decomp.self_s": ("s", "self", "decomp"),
    "decomp.fiber_rank_s": ("s", "time", ("decomp.fiber_rank",)),
    "decomp.fiber_rank_calls": ("count", "count", ("decomp.fiber_rank",)),
    "fgl.self_s": ("s", "self", "fgl"),
    "fgl.build_ptypical_s": ("s", "time", ("fgl.build_ptypical",)),
    "fgl.n_series_s": ("s", "time", ("fgl.n_series",)),
    "fgl.weierstrass_prep_s": ("s", "time", ("fgl.weierstrass_prep",)),
    "accept.self_s": ("s", "self", "accept"),
    **{
        "accept.criterion_%02d_s" % n: ("s", "prefix", "accept.criterion_%02d_" % n)
        for n in range(1, 12)
    },
    "cli.self_s": ("s", "self", "cli"),
    "perm.self_s": ("s", "self", "perm"),
    "perm.calls": ("count", "calls", "perm"),
    "cache.hits": ("count", "cache", "hits"),
    "cache.misses": ("count", "cache", "misses"),
    "untraced_s": ("s", "untraced", None),
    "trace_overhead_frac": ("ratio", "run", None),
    "fail_frac": ("ratio", "run", None),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env():
    return dict(os.environ, PYTHONPATH=SRC)


def _percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _check_package(result):
    """The child must have imported the checkout's own sources."""
    if not result.reports:
        raise BenchError("child sent no report: %s" % result.stderr.decode(errors="replace")[-500:])
    package = result.reports[0].get("package")
    if os.path.realpath(package) != os.path.realpath(os.path.join(SRC, "transchrome")):
        raise BenchError("imported transchrome from %s, not from %s" % (package, SRC))


def layer_values(summary, caches, latency_s) -> dict:
    """Per-layer metrics of one traced request (or one traced worker)."""
    layers, names = summary["layers"], summary["names"]
    out = {}
    for metric, (_, how, what) in PER_LAYER.items():
        if how == "self":
            out[metric] = layers.get(what, [0.0, 0])[0]
        elif how == "calls":
            out[metric] = layers.get(what, [0.0, 0])[1]
        elif how in ("time", "count"):
            col = 0 if how == "time" else 1
            out[metric] = sum(names.get(n, [0.0, 0])[col] for n in what)
        elif how == "prefix":
            out[metric] = sum(v[0] for n, v in names.items() if n.startswith(what))
        elif how == "cache":
            value = caches[what]
            if value is None:  # no cache left: every call builds a table
                value = names.get("classfun.class_table", [0.0, 0])[1]
            out[metric] = value
        elif how == "untraced":
            out[metric] = latency_s - summary["spanned_s"]
    return out


def _scaled(metrics, probes):
    """End-to-end times in reference seconds (see ``probe.py``)."""
    factor = probe.scale(probes)
    print("perfbench: %d probes, mean %.5f s; times scaled by %.4f"
          % (len(probes), sum(probes) / len(probes), factor), file=sys.stderr)
    out = dict(metrics)
    for name in ("setup_s", "wall_s", "slowest_s", "cpu_s", "query_p50_ms", "query_p99_ms"):
        out[name] = metrics[name] * factor
    out["queries_per_s"] = metrics["queries_per_s"] / factor
    return out


# ---------------------------------------------------------------------------
# cold workloads


def run_cold(name, seed, seconds, trace):
    requests = workloads.COLD[name](seed)
    digests = workloads.load_digests()
    rng = random.Random(seed)
    modes = ("0", "1") if trace else ("0",)
    samples = []  # (request index, traced, ChildResult, problems)
    probes = []
    cost = [0.0] * len(requests)
    start = time.monotonic()
    first_pass = True
    while True:
        ran = False
        for i in rng.sample(range(len(requests)), len(requests)):
            if not first_pass and time.monotonic() - start + cost[i] > seconds:
                continue
            req = requests[i]
            cost[i] = 0.0
            for traced in modes:
                argv = [sys.executable, os.path.join(HERE, "child.py"), "{fd}", traced, *req.argv]
                probes.append(probe.probe())
                result = procs.run(argv, req.limit_s, child_env(), ROOT)
                cost[i] += result.latency_s
                if result.timed_out:
                    problems = ["killed after %g s" % req.limit_s]
                elif result.exit_code != 0:
                    problems = ["exit code %d: %s" % (
                        result.exit_code, result.stderr.decode(errors="replace")[-300:])]
                elif len(result.reports) < 2:
                    problems = ["no completion report"]
                else:
                    problems = workloads.check_output(req, result.stdout, digests)
                if result.reports:
                    _check_package(result)
                samples.append((i, traced == "1", result, problems))
            ran = True
        first_pass = False
        if not ran:
            break
    failed = [s for s in samples if s[3]]
    for i, traced, result, problems in failed:
        print("perfbench: %s%s: %s" % (requests[i].key, " (traced)" if traced else "",
                                       "; ".join(problems)), file=sys.stderr)
    outcome = {
        "correct": all(s[2].timed_out for s in failed),
        "attempted": len(samples),
        "failed": len(failed),
    }
    if trace:
        metrics = _cold_layers(samples)
        metrics["fail_frac"] = len(failed) / len(samples)
        _write_spans(name, seed, [
            {"request": requests[i].key, "latency_s": r.latency_s,
             "spans": r.reports[1].get("spans", []) if len(r.reports) > 1 else []}
            for i, traced, r, _ in samples if traced
        ])
    else:
        metrics = _scaled(_cold_end_to_end(samples), probes)
    return outcome, metrics


def _by_request(samples, traced):
    """Finished samples by request index; a killed request has no latency."""
    out = {}
    for i, was_traced, result, _ in samples:
        if was_traced == traced and not result.timed_out:
            out.setdefault(i, []).append(result)
    return out


def _cold_end_to_end(samples):
    by_req = _by_request(samples, False)
    latency = {i: statistics.mean(r.latency_s for r in rs) for i, rs in by_req.items()}
    cpu = {i: statistics.mean(r.cpu_s for r in rs) for i, rs in by_req.items()}
    results = [r for rs in by_req.values() for r in rs]
    setups = [r.reports[0]["imported"] - r.started for r in results if r.reports]
    done = [r.reports for r in results if len(r.reports) > 1]
    if not done:
        raise BenchError("no request finished")
    peak = max(rep[1]["peak_rss_kb"] for rep in done)
    growth = max(rep[1]["peak_rss_kb"] - rep[0]["bare_rss_kb"] for rep in done)
    wall = sum(latency.values())
    per_request_ms = sorted(v * 1000 for v in latency.values())
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "slowest_s": max(latency.values()),
        "cpu_s": sum(cpu.values()),
        "peak_rss_mb": peak / 1024,
        "rss_growth_mb": growth / 1024,
        "queries_per_s": len(latency) / wall,
        "query_p50_ms": statistics.median(per_request_ms),
        "query_p99_ms": _percentile(per_request_ms, 99),
    }


def _cold_layers(samples):
    traced = _by_request(samples, True)
    plain = _by_request(samples, False)
    totals = dict.fromkeys(PER_LAYER, 0.0)
    absent = set()
    for results in traced.values():
        done = [r for r in results if len(r.reports) > 1]
        for r in done:
            report = r.reports[1]
            values = layer_values(report["summary"], report["caches"], r.latency_s)
            for metric, value in values.items():
                totals[metric] += value / len(done)
            absent.update(report["caches"]["absent"])
    for name in sorted(absent):
        print("perfbench: cache %s is absent" % name, file=sys.stderr)
    traced_wall = sum(statistics.mean(r.latency_s for r in rs) for rs in traced.values())
    plain_wall = sum(statistics.mean(r.latency_s for r in rs) for rs in plain.values())
    totals["trace_overhead_frac"] = traced_wall / plain_wall - 1
    return totals


# ---------------------------------------------------------------------------
# library-warm


def _warm_worker(seed, loop_s, mode):
    argv = [sys.executable, os.path.join(HERE, "warm.py"), "{fd}", str(seed), "%.3f" % loop_s, mode]
    result = procs.run(argv, loop_s + 120, child_env(), ROOT)
    _check_package(result)
    if result.timed_out or result.exit_code != 0:
        raise BenchError("warm worker (%s) failed: exit %d%s\n%s" % (
            mode, result.exit_code, ", killed" if result.timed_out else "",
            result.stderr.decode(errors="replace")[-1000:]))
    if mode != "setup" and len(result.reports) < 2:
        raise BenchError("warm worker (%s) sent no loop report" % mode)
    return result


def run_warm(seed, seconds, trace):
    start = time.monotonic()
    probes = []
    if trace:
        plain = _warm_worker(seed, seconds / 2, "run")
        traced = _warm_worker(seed, seconds / 2, "trace")
        workers = [plain, traced]
    else:
        setups = []
        for _ in range(2):
            probes.append(probe.probe())
            setups.append(_warm_worker(seed, 0, "setup"))
        setup_cost = max(r.latency_s for r in setups)
        loop_s = seconds - (time.monotonic() - start) - setup_cost
        probes.append(probe.probe())
        main = _warm_worker(seed, loop_s, "run")
        workers = [main]
    loops = [w.reports[1] for w in workers]
    failed = sum(loop["failed"] for loop in loops)
    for loop in loops:
        for problem in loop["problems"]:
            print("perfbench: library-warm: %s" % problem, file=sys.stderr)
    outcome = {
        "correct": failed == 0,
        "attempted": sum(loop["queries"] for loop in loops),
        "failed": failed,
    }
    if not trace:
        loop = loops[0]
        setup_s = [r.reports[0]["setup_done"] - r.started for r in setups + workers]
        every = sorted(v * 1000 for kind in loop["latencies"].values() for v in kind)
        rss_setup = main.reports[0]["rss_setup_kb"]
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.mean(loop["passes"]),
            "slowest_s": max(statistics.mean(v) for v in loop["latencies"].values()),
            "cpu_s": statistics.mean(loop["pass_cpu"]),
            "peak_rss_mb": loop["rss_first_pass_kb"] / 1024,
            "rss_growth_mb": (loop["rss_end_kb"] - rss_setup) / 1024 * 1000 / loop["queries"],
            "queries_per_s": loop["queries"] / sum(loop["passes"]),
            "query_p50_ms": statistics.median(every),
            "query_p99_ms": _percentile(every, 99),
        }
        return outcome, _scaled(metrics, probes + loop["probes"])
    loop = loops[1]
    passes = len(loop["passes"])
    wall = sum(loop["passes"])
    values = layer_values(loop["summary"], loop["caches"], wall)
    metrics = {metric: value / passes for metric, value in values.items()}
    for absent in loop["caches"]["absent"]:
        print("perfbench: cache %s is absent" % absent, file=sys.stderr)
    metrics["trace_overhead_frac"] = (
        statistics.mean(loop["passes"]) / statistics.mean(loops[0]["passes"]) - 1)
    metrics["fail_frac"] = failed / outcome["attempted"]
    _write_spans("library-warm", seed, [{"request": "query loop", "latency_s": wall,
                                         "spans": loop.get("spans", [])}])
    return outcome, metrics


# ---------------------------------------------------------------------------


def _write_spans(name, seed, requests):
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, "%s-seed%d.json" % (name, seed))
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed,
                   "columns": ["name", "start", "end", "parent", "request"],
                   "requests": requests}, fh)


def warm_up():
    """Import the package once so that byte-compilation is not timed."""
    argv = [sys.executable, "-c", "import transchrome.cli"]
    result = procs.run(argv, 60, child_env(), ROOT)
    if result.exit_code != 0:
        raise BenchError("cannot import transchrome from %s:\n%s" % (
            SRC, result.stderr.decode(errors="replace")[-1000:]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps the child it is waiting on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "transchrome", "cli.py")):
        print("perfbench: no transchrome sources under %s" % SRC, file=sys.stderr)
        return 2
    try:
        warm_up()
        if args.workload == "library-warm":
            outcome, values = run_warm(args.seed, args.seconds, bool(args.trace))
        else:
            outcome, values = run_cold(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    units = {m: spec[0] for m, spec in PER_LAYER.items()} if args.trace else END_TO_END
    outcome["metrics"] = {m: {"value": values[m], "unit": unit} for m, unit in units.items()}
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
