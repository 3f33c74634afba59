"""How fast the processor runs Python right now.

On a small shared machine the speed this benchmark gets drifts by tens of
percent over minutes, with whatever else runs on the same processors, and a
30-second run sits wholly in one state.  ``probe`` times a fixed loop of
pure-Python arithmetic, the kind of work transchrome does; a run probes
between its requests and scales its end-to-end times by ``REFERENCE_S``
over the mean probe time.  Times are then seconds on a processor that runs
the loop in ``REFERENCE_S``, so two runs of the same code agree even when
the machine's speed moved between them.  Memory is not scaled.
"""

import time

REFERENCE_S = 0.025  # the loop's time on an unloaded 2.1 GHz Xeon vCPU


def probe() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - start


def scale(probes) -> float:
    """Factor that turns times measured alongside ``probes`` into reference
    seconds."""
    return REFERENCE_S * len(probes) / sum(probes)
