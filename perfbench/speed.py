"""Host-speed reference: fixed CPU work timed next to every measurement.

The shared host this benchmark was built on changes speed by up to 1.5x
between phases that last from seconds to minutes, and process CPU time
changes with wall time, so a run's raw timings depend on the phase it
lands in.  A small fixed kernel (a pure-Python loop plus a LAPACK root solve
and eigenvalue solve, like the library's own mix) is timed before every
item.  Each item's wall time is scaled by NOMINAL_S over the rolling median
of the reference samples around it, so that reported times read as on a
host where the reference takes exactly NOMINAL_S.  The kernel does not touch
tetrainner, so a change to the library moves the scaled times as much as
the raw ones.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 1e-3   # reported times are for a host where the reference takes 1 ms
WINDOW = 5         # reference samples on each side of an item in the rolling median


class Reference:
    """The fixed kernel; its inputs come from a constant seed, not the workload's."""

    def __init__(self):
        import numpy as np  # only once the BLAS thread count is pinned
        self._np = np
        rng = np.random.default_rng(20210107)
        self._poly = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        self._matrix = rng.standard_normal((24, 24))

    def sample(self) -> float:
        """Wall seconds of one run of the kernel."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(4000):
            acc += (i * 7) % 13
        self._np.roots(self._poly)
        self._np.linalg.eigvals(self._matrix)
        return time.perf_counter() - t0


def local_factors(samples, window: int = WINDOW) -> list[float]:
    """NOMINAL_S over the rolling median of the reference samples at each position."""
    return [NOMINAL_S / statistics.median(samples[max(0, i - window): i + window + 1])
            for i in range(len(samples))]
