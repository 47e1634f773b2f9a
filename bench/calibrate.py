"""Host speed calibration of wall-clock timings.

On a shared host the CPU speed one process gets drifts with its neighbours'
load.  On a 2-vCPU KVM guest (Xeon, 2.1 GHz) the same ``analyze_linkage``
call measured 0.27 s and 0.55 s within one minute, in phases that last tens
of seconds, so a run of that length reports whichever phase it hit.  To take
the host out of the figures, the runner times a fixed reference kernel
between ops and divides each op's wall time by the host slowness around it,
interpolated between calibrations: the kernel's time over
:data:`REFERENCE_S`, its time on that guest when idle.  Reported times are
thus wall seconds at the idle speed of that guest.

The kernel mixes what linkmorse's ops do (interpreter work, NumPy calls on
small arrays, a small SVD, sign scans over a radius table) and calls none
of the program, so a change to the program cannot move it.  Measured on
that guest over 100 s, it cut the coefficient of variation of one op's
40-call medians from 14% to 3%, and of single calls from 18% to 9%.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# Median kernel time on the idle reference guest, in seconds.
REFERENCE_S = 3.4e-3

# A calibration is due when this much time has passed since the last one.
INTERVAL_S = 0.5

_X = np.linspace(0.1, 1.0, 16)
_M = np.outer(_X[:9], _X) + np.eye(9, 16)
_GRID = np.linspace(1.0, 50.0, 8192)
_LENGTHS = np.linspace(0.5, 2.0, 10)
_SIGNS = np.where(np.arange(16)[:, None] % 3 == np.arange(10)[None, :] % 3, -1.0, 1.0)


def _kernel() -> float:
    """Fixed work in two parts of about equal time: an interpreter loop over
    small arrays, and sign scans over a radius-by-edge table."""
    acc = 0.0
    counts: dict = {}
    for i in range(800):
        acc += float(np.arcsin(_X * 0.5) @ _X)
        acc += math.atan2(acc, i + 1.0)
        counts[i % 7] = counts.get(i % 7, 0) + 1
        if i % 80 == 0:
            acc += float(np.linalg.svd(_M, compute_uv=False)[0])
    alphas = np.arcsin(np.clip(_LENGTHS[None, :] / (2.0 * _GRID[:, None]), 0.0, 1.0))
    for signs in _SIGNS:
        values = alphas @ signs
        acc += float(np.count_nonzero(values[:-1] * values[1:] < 0.0))
    return acc


def measure(repeats: int = 3) -> float:
    """Host slowness right now: median kernel time over REFERENCE_S."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / REFERENCE_S


class Clock:
    """Host slowness sampled over time, to rescale wall-clock intervals.

    Call :meth:`due` between pieces of timed work; it calibrates when
    :data:`INTERVAL_S` has passed since the last calibration.  Calibrate once
    more after the last piece.  :meth:`seconds` then gives an interval's
    duration at reference speed: slowness is interpolated linearly between
    calibrations, held constant beyond the first and the last.
    """

    def __init__(self):
        self.times: list = []
        self.slowness: list = []
        self._next = 0.0

    def calibrate(self):
        t0 = time.perf_counter()
        value = measure()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.slowness.append(value)
        self._next = t1 + INTERVAL_S

    def due(self):
        if time.perf_counter() >= self._next:
            self.calibrate()

    def _at(self, t: float) -> float:
        i = bisect.bisect_left(self.times, t)
        if i == 0:
            return self.slowness[0]
        if i == len(self.times):
            return self.slowness[-1]
        t0, t1 = self.times[i - 1], self.times[i]
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * self.slowness[i - 1] + w * self.slowness[i]

    def seconds(self, t0: float, t1: float) -> float:
        """Duration of the wall interval [t0, t1] at reference speed."""
        lo = bisect.bisect_right(self.times, t0)
        hi = bisect.bisect_left(self.times, t1)
        cuts = [t0, *self.times[lo:hi], t1]
        return sum((b - a) / self._at(0.5 * (a + b)) for a, b in zip(cuts, cuts[1:]))
