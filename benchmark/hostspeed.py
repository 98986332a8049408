"""Host-speed calibration for the timings.

The reference machine is a shared 2-core VM whose speed swings by up to
1.8x over seconds to minutes, for every process on it alike (see
README.md).  Raw medians then say more about the neighbours than about the
program.  So the benchmark keeps reading a fixed kernel that does not
touch the program: a hundred small numpy calls driven from a Python loop,
the same mix as dynforest's hot paths.  Each operation's time is scaled by
REFERENCE_S over the median kernel time read around it, which gives the
time the operation would take with the host at its reference speed.  A
change to the program cannot move the kernel, so it moves the scaled times
exactly as it moves the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time with the reference machine at its fast speed.
REFERENCE_S = 0.0007
# Longest gap between readings while operations run.
INTERVAL_S = 0.1
# An operation is scaled by the median of the readings taken this close
# to it: several readings, yet close enough in time to follow the host.
WINDOW_S = 0.5
MIN_READINGS = 3
# A reading is the fastest of this many kernel runs, which drops runs that
# an interrupt landed in.
RUNS_PER_READING = 3

_rng = np.random.default_rng(0)
_VALUES = _rng.random(2000)
_THRESHOLDS = np.sort(_rng.random(15))


def kernel():
    """Seconds for one pass of the fixed calibration work."""
    start = time.perf_counter()
    for i in range(100):
        rows = _VALUES[i:i + 400]
        int(np.bincount(np.searchsorted(_THRESHOLDS, rows), minlength=16)[:15].cumsum()[-1])
    return time.perf_counter() - start


class HostClock:
    """Readings of the kernel over a run, and the scale they imply."""

    def __init__(self):
        self.times = []
        self.kernel_s = []

    def read(self):
        self.kernel_s.append(min(kernel() for _ in range(RUNS_PER_READING)))
        self.times.append(time.perf_counter())

    def tick(self):
        """Take a reading if the last one is older than INTERVAL_S."""
        if not self.times or time.perf_counter() - self.times[-1] > INTERVAL_S:
            self.read()

    def scale(self, t0, t1):
        """REFERENCE_S over the median kernel time read within WINDOW_S of
        the interval [t0, t1] (or the MIN_READINGS nearest readings)."""
        times = np.asarray(self.times)
        lo = np.searchsorted(times, t0 - WINDOW_S)
        hi = np.searchsorted(times, t1 + WINDOW_S, side="right")
        if hi - lo >= MIN_READINGS:
            near = np.asarray(self.kernel_s[lo:hi])
        else:
            order = np.argsort(np.abs(times - (t0 + t1) / 2), kind="stable")
            near = np.asarray(self.kernel_s)[order[:MIN_READINGS]]
        return REFERENCE_S / float(np.median(near))
