"""One cold CLI request in a fresh interpreter.

Usage: python3 child.py REPORT_FD TRACE ARGV...

Runs ``transchrome.cli.main(ARGV)`` exactly as the ``transchrome`` console
script does, with stdout left to the CLI.  Two JSON lines go to the file
descriptor REPORT_FD: one as soon as the package is imported, so that a
request killed later still reports its start-up, and one when the request
is done.  With TRACE 1 the layers are traced from outside and the second
line carries the span summary, the cache counters and the spans.
"""

import json
import os
import resource
import sys
import time


def _send(fd, payload):
    data = (json.dumps(payload) + "\n").encode()
    while data:
        data = data[os.write(fd, data):]


def main():
    fd, trace, argv = int(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    bare_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    from transchrome import cli

    _send(fd, {
        "imported": time.monotonic(),
        "bare_rss_kb": bare_rss_kb,
        "package": os.path.dirname(cli.__file__),
    })
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer().install()
        before = spans.cache_counters()
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
    report = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        after = spans.cache_counters()
        report["summary"] = tracer.summary()
        report["caches"] = {
            "hits": after["hits"] - before["hits"],
            "misses": after["misses"] - before["misses"],
            "class_table_misses": after["class_table_misses"],
            "absent": after["absent"],
        }
        report["spans"] = tracer.span_rows()
    _send(fd, report)
    os.close(fd)
    return code


if __name__ == "__main__":
    sys.exit(main())
