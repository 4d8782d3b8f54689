"""A fixed pure-Python loop that gauges how fast the machine runs right now.

The test machine shares its host: for spells of seconds to minutes every
instruction runs up to 40% slower, in CPU time as well as in wall time, so
the same work timed a minute apart differs by more than any bound worth
setting. The harness times this loop after every operation and scales the
operation's time by ``REFERENCE_MS`` over the mean of the loop's times just
before and just after it. Times are then in milliseconds at reference
speed: the speed at which this loop takes ``REFERENCE_MS``, about what it
takes on an uncontended core of the 2-core test machine. The raw times are
kept in the run record.

The loop does the kinds of work nornet does (dict and list lookups, float
products, small tuples, float formatting, building and sorting a table of
a few thousand entries), so contention slows it about as much as it slows
the workloads. Work that runs at the same time as the
loop, such as another thread of the benchmarked process, would slow both
and not show.
"""

from __future__ import annotations

import os
from time import perf_counter

REFERENCE_MS = 1.0

_VALUES = [((i * 37) % 101) / 101.0 for i in range(256)]
_INDEX = {f"n{i:03d}": i for i in range(256)}
_KEYS = [((i * 7919) % 10007, i) for i in range(2048)]


def reference_seconds() -> float:
    """Mean wall time of the reference loop over the CPUs this process may
    use, one pass pinned to each. Contention differs from core to core, and
    pool workers run on the cores the calling thread is not using."""
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        return _loop()
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_loop())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def _loop() -> float:
    """Small-table work (dict and list lookups, float products, tuples,
    float formatting) and then a larger table built, sorted and read, so
    that contention for caches and memory shows as well as for the core."""
    start = perf_counter()
    acc = 0.0
    for _ in range(6):
        present = {}
        for key, i in _INDEX.items():
            x = _VALUES[i]
            present[key] = (i, x > 0.5)
            if present[key][1]:
                acc = acc * 0.5 + (1.0 - x * 0.01)
        acc = float("%.17g" % acc)
    table = {}
    for key, i in _KEYS:
        table[key] = (i, key * 0.5)
    ordered = sorted(table.items())
    acc += ordered[len(ordered) // 2][1][1]
    return perf_counter() - start
