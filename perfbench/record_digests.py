"""Record the sha256 of the stdout of every seed-independent cold request.

    python3 perfbench/record_digests.py

Run from the root of a checkout whose outputs are the reference; the
digests go to ``perfbench/digests.json``.
"""

import json
import os
import sys

import procs
import run
import workloads


def main():
    digests = {}
    for make in workloads.COLD.values():
        for req in make(0):
            if not req.fixed:
                continue
            argv = [sys.executable, os.path.join(run.HERE, "child.py"), "{fd}", "0", *req.argv]
            result = procs.run(argv, req.limit_s, run.child_env(), run.ROOT)
            if result.exit_code != 0 or result.timed_out:
                sys.exit("%s failed with exit code %d" % (req.key, result.exit_code))
            digests[req.key] = workloads.digest(result.stdout)
            print(req.key, digests[req.key])
    with open(workloads.DIGESTS_FILE, "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
