"""The library-warm worker: one long-lived process using transchrome as a
library, the way a notebook or a service would.

Usage: python3 warm.py REPORT_FD SEED SECONDS MODE

Set-up imports the package and builds the class tables and transfer data
for S8 > S4xS4 at lam (2,2,3) and S9 > S3^3 at lam (3,2,2).  MODE "setup"
stops there.  MODE "run" and "trace" then answer seeded queries in passes
of PASS_QUERIES while another pass fits in SECONDS, at least one pass;
"trace" wraps the layers after set-up.  A pass's time is the sum of its
queries' latencies.  Each query has a known answer:

- classify: a random conjugate of a class representative classifies to
  the same class;
- transfer: ``transfer_datum`` equals the datum built during set-up;
- induce: ``induce`` and ``induce_grouped`` agree on a random class
  function.

The queries read the set-up tables and grow the classification memo, so
this is where cache hit rates and memory growth in a long-lived process
show.
"""

import json
import os
import random
import resource
import sys
import time

import probe
from transchrome import classfun, homclass, perm

PAIRS = ((2, 2, 3), (3, 2, 2))  # (p, h, k); H has p blocks of p^(k-1) points
KINDS = ("classify", "transfer", "induce")
PASS_QUERIES = 1000
GOLDEN = (5 ** 0.5 - 1) / 2
PROBE_EVERY = 200  # queries between processor-speed probes, which are not timed


def query_stream(seed):
    """Endless queries ``(kind, pair, class pick in [0, 1), argument)`` for a
    seed; kinds and pairs take turns.  The argument is the conjugating
    permutation for classify and the class-function seed for induce.

    Class picks follow a golden-ratio sequence from a seeded start, so every
    pass visits the classes about evenly: their costs differ by an order of
    magnitude, and independent picks would make a pass's time depend on
    the seed."""
    rng = random.Random(seed)
    starts = {(kind, pair): rng.random() for kind in KINDS for pair in range(len(PAIRS))}
    i = 0
    while True:
        kind, pair = KINDS[i % len(KINDS)], (i // len(KINDS)) % len(PAIRS)
        p, _, k = PAIRS[pair]
        if kind == "classify":
            arg = tuple(rng.sample(range(p ** k), p ** k))
        elif kind == "induce":
            arg = rng.getrandbits(32)
        else:
            arg = None
        turn = i // (len(KINDS) * len(PAIRS))
        yield kind, pair, (starts[kind, pair] + turn * GOLDEN) % 1.0, arg
        i += 1


def setup():
    tables = []
    for p, h, k in PAIRS:
        lam = homclass.lam_group(p, h, k)
        G = perm.symmetric_group(p ** k)
        H = perm.block_subgroup(p ** (k - 1), p)
        g_table = classfun.class_table(G, lam)
        h_table = classfun.class_table(H, lam)
        _, data = classfun.induction_tables(G, H, lam)
        tables.append((G, g_table, h_table, data))
    return tables


def answer(tables, query) -> bool:
    """Run one query and say whether its known answer holds."""
    kind, pair, pick, arg = query
    G, g_table, h_table, data = tables[pair]
    key = g_table.classes[int(pick * len(g_table.classes))]
    if kind == "classify":
        # arg * s * arg^-1 for each component s of the representative
        conj = []
        for s in g_table.rep_images(key):
            out = [0] * len(s)
            for i, x in enumerate(s):
                out[arg[i]] = arg[x]
            conj.append(tuple(out))
        return g_table.key_of_images(tuple(conj)) == key
    if kind == "transfer":
        return classfun.transfer_datum(G, h_table.group, key) == data[key]
    chi = classfun.GenClassFunction.random(h_table, random.Random(arg))
    return classfun.induce(chi, G) == classfun.induce_grouped(chi, G)


def _send(fd, payload):
    data = (json.dumps(payload) + "\n").encode()
    while data:
        data = data[os.write(fd, data):]


def _rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    fd, seed, seconds, mode = int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    tables = setup()
    _send(fd, {
        "setup_done": time.monotonic(),
        "rss_setup_kb": _rss_kb(),
        "package": os.path.dirname(classfun.__file__),
    })
    if mode == "setup":
        return 0
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer().install()
        before = spans.cache_counters()
    stream = query_stream(seed)
    latencies = {kind: [] for kind in KINDS}
    passes, pass_cpu, probes, problems = [], [], [], []
    failed = queries = 0
    rss_first_pass = None
    clock = time.perf_counter
    loop_start = clock()
    while not passes or clock() - loop_start + passes[-1] <= seconds:
        pass_s = pass_cpu_s = 0.0
        for i in range(PASS_QUERIES):
            if i % PROBE_EVERY == 0:
                probes.append(probe.probe())
            query = next(stream)
            if tracer is not None:
                tracer.request = queries
            start, cpu_start = clock(), time.process_time()
            try:
                ok, problem = answer(tables, query), "wrong answer"
            except Exception as exc:  # a failed query is counted, the loop goes on
                ok, problem = False, "raised %r" % exc
            latency = clock() - start
            pass_cpu_s += time.process_time() - cpu_start
            pass_s += latency
            latencies[query[0]].append(latency)
            queries += 1
            if not ok:
                failed += 1
                if len(problems) < 5:
                    problems.append("%s query %d: %s" % (query[0], queries, problem))
        passes.append(pass_s)
        pass_cpu.append(pass_cpu_s)
        if rss_first_pass is None:
            rss_first_pass = _rss_kb()
    report = {
        "queries": queries,
        "failed": failed,
        "problems": problems,
        "passes": passes,
        "pass_cpu": pass_cpu,
        "probes": probes,
        "latencies": latencies,
        "rss_first_pass_kb": rss_first_pass,
        "rss_end_kb": _rss_kb(),
    }
    if tracer is not None:
        after = spans.cache_counters()
        report["summary"] = tracer.summary()
        report["caches"] = {
            "hits": after["hits"] - before["hits"],
            "misses": after["misses"] - before["misses"],
            "class_table_misses": None if after["class_table_misses"] is None
            else after["class_table_misses"] - before["class_table_misses"],
            "absent": after["absent"],
        }
        report["spans"] = tracer.span_rows()
    _send(fd, report)
    os.close(fd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
