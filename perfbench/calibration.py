"""Machine-speed calibration for timings taken on a shared, noisy CPU.

On a machine shared with other tenants the speed a process gets drifts by
+-20% over tens of seconds, which is the length of a run.  The benchmark
therefore times this fixed kernel between timed intervals and rescales
each interval by REFERENCE_S / (median of the kernel times around it): the
reported times are what the interval would have taken at the speed at
which the kernel takes REFERENCE_S.  The median over a few neighbouring
kernels keeps one preempted kernel from skewing an interval.

The kernel mixes the two kinds of work the library does, many small numpy
calls (like quadrature panels) and a scalar Python recurrence over a
40 001-entry list (like one Numerov propagation), so its slow-downs track
the program's, including those that come from other tenants' use of the
shared caches.  Raw times are reported next to the rescaled ones.

REFERENCE_S is part of the benchmark's definition: change it and every
time metric changes scale.
"""

import statistics
import time
from typing import List, Sequence

import numpy as np

REFERENCE_S = 0.010
# an interval's factor uses the median of the 2 * HALF_WINDOW kernels nearest it
HALF_WINDOW = 3
_X = np.linspace(0.0, 1.0, 15)
# a shooting-grid-sized table: its traversal is as sensitive to contention
# for the shared caches as the Numerov loop is
_W = np.linspace(0.0, 1e-9, 40001)


def kernel_seconds() -> float:
    """Wall time of one fixed unit of work (about 10 ms at REFERENCE_S)."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(400):
        acc += float(np.dot(_X, np.sqrt(1.0 + _X * _X)))
    t = (_W * 2.0).tolist()
    u, u_prev = 1e-3, 0.0
    for i in range(1, len(t) - 1):
        u, u_prev = ((2.0 + 10.0 * t[i]) * u - (1.0 - t[i - 1]) * u_prev) / (1.0 - t[i + 1]), u
    elapsed = time.perf_counter() - start
    if not (acc > 0.0 and u > 0.0):  # keeps the work observable
        raise RuntimeError("calibration kernel produced a wrong value")
    return elapsed


def scales(kernels: Sequence[float]) -> List[float]:
    """Rescaling factor of each interval timed between consecutive kernels.

    Interval i lies between kernels[i] and kernels[i + 1]; its factor uses
    the median of the (up to) 2 * HALF_WINDOW kernels nearest to it.
    """
    return [REFERENCE_S / statistics.median(
                kernels[max(0, i + 1 - HALF_WINDOW):i + 1 + HALF_WINDOW])
            for i in range(len(kernels) - 1)]
