"""Host speed, sampled while the benchmark runs.

On a shared machine the same work can take twice as long from one minute to
the next, in process CPU time as much as in wall time, because other
programs share the processor. A timer interrupts the run every PERIOD_S
seconds and times a fixed kernel that shares no code with hubplan. A
measured interval, less the time spent in the kernel, is then scaled by
REF_S over the kernel's median time around that interval: the result is the
interval's length on a host running at the reference speed. No change to
hubplan changes what the kernel computes, so a slower program still reads
slower.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

clock = time.perf_counter

PERIOD_S = 0.25
MIN_SAMPLES = 8         # an interval with fewer samples borrows its nearest ones
# about the kernel's median time inside benchmark runs on the machine the
# benchmark was written on (Intel Xeon, 2 vCPUs, Python 3.11.7, numpy 2.4.6,
# one BLAS thread), where it ranged from 0.84 to 1.19 ms between runs
REF_S = 1.0e-3

_RNG = np.random.default_rng(0)
_SMALL = _RNG.random((48, 48))
_SMALL_OUT = np.empty((48, 48))
_LARGE = _RNG.random((192, 192)) / 192
_LARGE_OUT = np.empty((192, 192))
_TABLE = dict.fromkeys(range(64), 0)
_ROW = list(range(40))


def kernel() -> None:
    """About equal parts of interpreter work, small-array numpy and one
    larger matrix product, the mixes hubplan's queries, policy training and
    low-level training run. It allocates nothing, so the state of the
    program's heap does not change its time."""
    table, row = _TABLE, _ROW
    for i in row:
        for j in row:
            table[(i + j) & 63] = (table[(i * j) & 63] + row[j - i]) & 255
    small, out = _SMALL, _SMALL_OUT
    np.matmul(small, small, out=out)
    for _ in range(30):
        np.tanh(out, out=out)
        np.matmul(out, small, out=out)
    large, large_out = _LARGE, _LARGE_OUT
    np.matmul(large, large, out=large_out)


@dataclass
class Interval:
    start: float
    end: float
    raw: float          # seconds, kernel time taken out


class HostSpeed:
    """Kernel samples taken from a SIGALRM handler while the run goes on.

    Each sample runs the kernel twice and times the second pass, so that
    what the program left in the caches costs only the untimed first pass."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.busy = 0.0

    def _sample(self, _signum=None, _frame=None) -> None:
        t0 = clock()
        kernel()
        t1 = clock()
        kernel()
        t2 = clock()
        self.at.append(t2)
        self.took.append(t2 - t1)
        self.busy += clock() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float]:
        return clock(), self.busy

    def since(self, mark: tuple[float, float]) -> Interval:
        t1 = clock()
        return Interval(mark[0], t1, (t1 - mark[0]) - (self.busy - mark[1]))

    def kernel_s(self, start: float, end: float) -> float:
        """Median kernel time of the samples inside [start, end], or of the
        MIN_SAMPLES samples nearest to it when it holds fewer."""
        if not self.took:
            return REF_S
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            if lo > 0 and (hi == len(self.at) or start - self.at[lo - 1] <= self.at[hi] - end):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.took[lo:hi])

    def dump(self, path, intervals: dict) -> None:
        """Write the samples and the measured intervals, for inspection."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "ref_s": REF_S, "at": self.at, "took": self.took,
            "intervals": {name: [[iv.start, iv.end, iv.raw] for iv in ivs]
                          for name, ivs in intervals.items()}}))

    def scaled(self, iv: Interval) -> float:
        """Seconds the interval would have taken at the reference host speed."""
        return iv.raw * REF_S / self.kernel_s(iv.start, iv.end)
