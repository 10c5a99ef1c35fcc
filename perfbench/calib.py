"""Calibrated seconds: wall time rescaled by the speed of a reference loop.

The host this benchmark was built on switches between speed regimes about
40% apart that last seconds to a minute, so raw wall times of identical
work move by more than the bounds in BENCHMARK.json.  Every timed interval
is therefore rescaled by

    factor = NOMINAL_S / mean(reference-loop times sampled near the interval)

where the samples are those taken during the interval (one every PERIOD_S
seconds, from a SIGALRM handler) and BOUNDARY_SAMPLES on either side of
it.  The time spent sampling is subtracted from the interval.  Wider
windows of the same samples (0.1 s to 2 s around the interval) made
calibrated times of identical work spread more, not less: the regimes
can change within a second.

The loop is pure Python and imports nothing from qmink.  It allocates only
ints and strs (no containers the cyclic collector tracks) and runs with
the collector paused, so a large qmink heap cannot slow it down.  Its mix
(scattered reads from a 256 KiB table, 90-bit integer arithmetic,
int-to-str) resembles the pointer-chasing, big-int work of the exact
arithmetic; on the reference host it tracked qmink's speed far better
than a loop of small-int arithmetic alone.
"""

import gc
import signal
import time
from bisect import bisect_left, bisect_right
from statistics import fmean

_TABLE = bytes(range(256)) * 1024  # 256 KiB; bytes are not GC-tracked
_MASK = len(_TABLE) - 1
_MOD = (1 << 89) - 1

ITERATIONS = 4000
# time of ITERATIONS loop iterations in the fast regime of the reference
# host (2-core VM, Python 3.11.7); one calibrated second is one second of
# work at that speed
NOMINAL_S = 0.0015
PERIOD_S = 0.05
BOUNDARY_SAMPLES = 8  # samples taken at each end of an interval


def reference_loop(n):
    t = _TABLE
    m = _MASK
    p = _MOD
    i = 1
    y = 3 ** 40
    s = ""
    for k in range(n):
        i = (i * 1103515245 + k) & m
        x = t[i]
        y = (y * (x | 1) + k) % p
        s = str(x)
    return y + len(s)


class Mark:
    __slots__ = ("t", "overhead")

    def __init__(self, t, overhead):
        self.t = t
        self.overhead = overhead


class Interval:
    """One timed interval, [t0, t1] in perf_counter seconds.

    raw excludes the sampling time that fell inside (sampled); the factor
    is set by Calibrator.settle once the samples after it exist.
    """

    __slots__ = ("t0", "t1", "raw", "sampled", "factor")

    def __init__(self, t0, t1, sampled):
        self.t0 = t0
        self.t1 = t1
        self.raw = t1 - t0 - sampled
        self.sampled = sampled
        self.factor = None

    @property
    def calibrated(self):
        return self.raw * self.factor


class Calibrator:
    """Samples the reference loop before, during and after timed intervals."""

    def __init__(self, iterations=ITERATIONS, period=PERIOD_S):
        self.iterations = iterations
        self.period = period
        self.samples = []    # loop seconds
        self.sample_t = []   # perf_counter at the end of each sample
        self.overhead = 0.0  # seconds spent sampling, handler included
        self.intervals = []
        self._busy = False

    def sample(self):
        if self._busy:  # the alarm fired while a sample was running
            return
        self._busy = True
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            reference_loop(self.iterations)
        finally:
            if enabled:
                gc.enable()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.sample_t.append(t1)
        self.overhead += time.perf_counter() - t0
        self._busy = False

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def begin(self):
        """Sample, then open an interval."""
        for _ in range(BOUNDARY_SAMPLES):
            self.sample()
        return Mark(time.perf_counter(), self.overhead)

    def end(self, mark):
        """Close the interval opened at mark, then sample after it."""
        t = time.perf_counter()
        iv = Interval(mark.t, t, self.overhead - mark.overhead)
        self.intervals.append(iv)
        for _ in range(BOUNDARY_SAMPLES):
            self.sample()
        return iv

    def factor(self, t0, t1):
        """NOMINAL_S over the mean time of the samples taken during
        [t0, t1] and of the BOUNDARY_SAMPLES taken on either side."""
        lo = max(0, bisect_left(self.sample_t, t0) - BOUNDARY_SAMPLES)
        hi = bisect_right(self.sample_t, t1) + BOUNDARY_SAMPLES
        return NOMINAL_S / fmean(self.samples[lo:hi])

    def settle(self):
        """Give every closed interval its factor; call after the last sample."""
        for iv in self.intervals:
            iv.factor = self.factor(iv.t0, iv.t1)

    def mean_factor(self):
        return NOMINAL_S / fmean(self.samples)
