"""A fixed piece of work that times the host rather than the program.

The 2-vCPU VM this benchmark was built on changes speed by 20-60% over
minutes, so that ten runs of unchanged code spread wider than any useful
bound.  The benchmark therefore times this reference work in the same process
as the work it measures, close in time to it, and reports every time at the
host speed at which one reference call takes NOMINAL_S:

    reported = measured * NOMINAL_S / median(reference times of the run)

The work uses numpy only, never normpart, so no change to the program moves
it.  It mixes what normpart's workloads spend their time on: elementwise
powers and row reductions over small blocks, uniform draws, a batch of 2x2
singular values, a bisection loop and Python call overhead.
"""

import statistics
import time

import numpy as np

# Median time of one reference call on the 2-vCPU Xeon VM the benchmark was
# built on (Python 3.11.7, numpy 2.4.6, one BLAS thread), at its usual speed.
NOMINAL_S = 0.011

_BLOCK = np.random.default_rng(0).uniform(-1.0, 1.0, size=(1024, 3))
_MATS = np.random.default_rng(1).standard_normal((64, 2, 2))


def _work():
    rng = np.random.default_rng(2)
    acc = 0.0
    for _ in range(120):
        acc += float((np.abs(_BLOCK - rng.uniform(-1.0, 1.0, 3)) ** 1.5)
                     .sum(axis=1).min())
    for _ in range(30):
        acc += float(np.linalg.svd(_MATS, compute_uv=False).sum())
    rows = np.abs(_BLOCK)
    lo, hi = rows.max(axis=1), 2.0 * rows.max(axis=1)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        big = -np.log1p(-np.minimum(rows / mid[:, None], 0.5)).sum(axis=1) > 1.0
        lo = np.where(big, mid, lo)
        hi = np.where(big, hi, mid)
    return acc + float(lo.sum())


def reference_seconds(repeats=3):
    """Median wall time of `repeats` calls of the reference work."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
