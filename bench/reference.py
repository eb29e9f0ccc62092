"""Machine-speed reference for the benchmark's timings.

A fixed loop of small numpy operations and Python allocations, the two
kinds of work arclab's hot paths are made of, is timed right before and
right after every timed set-up and cycle. Times are reported scaled by
``REFERENCE_S / (mean of the two reference times)``: seconds at the speed
where the reference takes ``REFERENCE_S``. NOTES.md shows why and how much
this steadies the figures. The reference is benchmark code, so no change
to arclab can move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The reference's time in the fast state of an uncontended vCPU of a
# 2.0 GHz Intel Xeon, Python 3.11.7, numpy 2.4.6, one BLAS thread.
REFERENCE_S = 0.040
_V = np.ones(64)
_W = np.full(64, 0.5)


def reference_s() -> float:
    """Seconds the fixed reference work takes now."""
    start = perf_counter()
    for _ in range(12_000):
        float(_V @ _W)
        0.5 * _V - 0.25 * _W
    for i in range(60_000):
        {"a": i, "b": [i, i + 1]}
    return perf_counter() - start


def timed(fn):
    """(result, seconds ``fn()`` took, speed factor measured around it)."""
    before = reference_s()
    start = perf_counter()
    result = fn()
    elapsed = perf_counter() - start
    return result, elapsed, 2.0 * REFERENCE_S / (before + reference_s())
