"""A machine-speed reference sampled while the measurement runs.

The reference container is a small shared VM whose speed drifts by ±15 %
(at times +50 %) in episodes of 5–30 s; CPU time drifts with it, so it is
the host, not scheduling inside the guest. An invocation of the ledger
lasts about as long as an episode: all of its repetitions are slow
together, and the median over them is slow too. Measured on raw seconds,
the ten-invocation spread (IQR/median) of unchanged code was 3–8 % in
quiet hours and 10–27 % in noisy ones — past any bound the contract allows.

So every child process times a fixed reference kernel every
``INTERVAL_S`` of wall time, from a ``SIGALRM`` handler that runs between
two bytecodes of whatever the program is doing. From the samples that fell
inside a timed interval:

* ``paused(start, end)`` — the seconds the kernel itself took, which are
  taken back out of the interval (and out of every span that was open);
* ``slowdown(start, end)`` — mean kernel time over ``REF_NOMINAL_S``: how
  much slower than reference speed the machine ran during that interval.

Every time the ledger reports is ``(interval − paused) / slowdown``:
**seconds at reference speed**. The raw seconds and the slowdown are
reported beside it (``harness.raw_wall_s``, ``harness.slowdown``).

What it buys, measured on twelve back-to-back repetitions at a time: in
noisy hours the spread of one repetition falls from 7–10 % to 3–3.5 %
(kernel and workload correlate at 0.92–0.95); in quiet hours, where raw
spread is 2–5 %, it *adds* a point or two, because the host's noise is
not one uniform factor and a 0.6 ms kernel does not feel exactly what a
3 s workload feels. It is insurance against the noisy hours, not a free
lunch. The kernel mixes interpreter work with small-array numpy calls
because that is what the program under test is made of; richer kernels
(tuple-keyed dicts, method calls, large-array gathers, object-graph walks)
tracked the workloads no better and one of them markedly worse.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter
from typing import List

import numpy as np

#: Mean kernel time on the reference container at its median speed. Frozen:
#: it only fixes the unit ("seconds at reference speed") and cancels out of
#: every comparison between two commits.
REF_NOMINAL_S = 0.00065
#: Wall time between samples (≈2.5 % of the run goes to the kernel).
INTERVAL_S = 0.025
#: Fewer samples than this inside an interval: widen it (see slowdown).
MIN_SAMPLES = 12

_ARRAY = np.arange(1024, dtype=np.float64)


def reference_kernel() -> float:
    """≈0.65 ms of interpreter and small-array work; no lasting state."""
    table = {}
    acc = 0.0
    for i in range(3000):
        table[i & 511] = acc
        acc += (i * 0.5) % 7.0
    for _ in range(12):
        y = np.cumsum(_ARRAY * 1.0001)
        order = np.argsort(y[::-1])
        acc += float(y[order[0]])
    return acc


class SpeedReference:
    """Samples :func:`reference_kernel` on a wall-clock timer."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._prefix: List[float] = [0.0]
        self._busy = False

    def start(self) -> None:
        for _ in range(5):
            reference_kernel()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        prefix = [0.0]
        for duration in self.durations:
            prefix.append(prefix[-1] + duration)
        self._prefix = prefix

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            started = perf_counter()
            reference_kernel()
            self.durations.append(perf_counter() - started)
            self.starts.append(started)
        finally:
            self._busy = False

    # -- queries (after stop) ----------------------------------------------

    def paused(self, start: float, end: float) -> float:
        """Kernel seconds of the samples that began inside [start, end]."""
        lo = bisect_left(self.starts, start)
        hi = bisect_right(self.starts, end)
        return self._prefix[hi] - self._prefix[lo]

    def samples(self, start: float, end: float) -> int:
        return bisect_right(self.starts, end) - bisect_left(self.starts, start)

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time over REF_NOMINAL_S during [start, end].

        An interval too short to hold MIN_SAMPLES is widened sample by
        sample on both sides until it does (a 5 ms set-up borrows the
        speed of the third of a second around it). With no samples at all
        the answer is 1.0.
        """
        lo = bisect_left(self.starts, start)
        hi = bisect_right(self.starts, end)
        total = len(self.starts)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < total):
            lo = max(0, lo - 1)
            hi = min(total, hi + 1)
        if hi == lo:
            return 1.0
        mean = (self._prefix[hi] - self._prefix[lo]) / (hi - lo)
        return mean / REF_NOMINAL_S
