"""The reference kernel: timings in seconds at the box's nominal speed.

This box runs in speed regimes that last from a second to minutes and differ
by 10-50 %: over two sets of ten 20 s runs of identical code, raw pass times
spread by 7-19 % and their medians moved by 20 %, more than any bound worth
gating on.  A regime slows all Python code alike, so every timed part is
bracketed by runs of a fixed pure-Python kernel (integer arithmetic, dict
stores, list appends, string building), and the part's seconds are scaled by
``NOMINAL_S`` over the kernel's seconds: *seconds at nominal speed*.  The raw
seconds are printed beside every normalised metric.

Frozen: a change to the kernel or to ``NOMINAL_S`` rescales every timing of
every workload, so it needs a fresh baseline.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Tuple

__all__ = ["NOMINAL_S", "kernel", "timed", "at_nominal_speed"]

#: Seconds one kernel run takes on the benchmark's box in its quiet regime.
#: It only sets the scale: where the kernel takes exactly this long, nominal
#: and raw seconds agree.
NOMINAL_S = 0.006
#: Kernel runs before and after a timed part; their median is the reference.
RUNS_EACH_SIDE = 3


def kernel() -> float:
    """Seconds one run of the kernel takes right now.

    It allocates ints and strings only: new containers would trigger garbage
    collections whose cost grows with the heap of the process, and the
    reference must not depend on what the workload has allocated.
    """
    start = time.perf_counter()
    total, table, cells = 0, {}, []
    for i in range(60_000):
        total += i * i % 7
        table[i & 1023] = total
        if i & 7 == 0:
            cells.append(str(total))
    ",".join(cells)
    return time.perf_counter() - start


def timed(func, *args, **kwargs) -> Tuple[Any, float, float]:
    """``func``'s result, its seconds and the kernel's seconds around it."""
    runs = [kernel() for _ in range(RUNS_EACH_SIDE)]
    start = time.perf_counter()
    result = func(*args, **kwargs)
    seconds = time.perf_counter() - start
    runs += [kernel() for _ in range(RUNS_EACH_SIDE)]
    return result, seconds, statistics.median(runs)


def at_nominal_speed(seconds: float, reference: float) -> float:
    """``seconds`` measured while the kernel took ``reference`` seconds."""
    return seconds * NOMINAL_S / reference
