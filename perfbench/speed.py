"""Machine-speed probe: a fixed snippet, timed all through a run.

The reference machine is two cores of a shared host, and its speed swings
within seconds as other tenants start and stop: a fixed loop of Python,
``Fraction`` and small numpy work took from 1.05 to 1.87 times its fastest
time in successive 2 s windows of one 4-minute probe, with slow stretches
of 30 s.  A 30 s run cannot average that out, so the harness scales every
timed interval by the slowdown measured around it.

While a probe runs, ``SIGALRM`` fires every :data:`PERIOD` seconds and its
handler times :func:`snippet`; the harness also samples right before each
op.  The slowdown of an interval is the mean snippet time over the samples
started within :data:`WINDOW` seconds of it, divided by
:data:`REFERENCE_S`.  Snippet time spent inside the interval is subtracted
before scaling, so the reported time is the interval's own work at the
reference speed.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

import numpy as np

#: Seconds between timer samples.
PERIOD = 0.025

#: Samples started this close to an interval also describe it; the host's
#: speed holds steady over such spans.
WINDOW = 0.1

#: Snippet time that defines the reference speed: about its median during
#: benchmark runs on the reference machine (2 cores, Python 3.11.7, numpy
#: 2.4.6), where it ranged from 0.28 to 0.6 ms.  Scaled times are seconds
#: at that speed.
REFERENCE_S = 4.0e-4

_MATRIX = np.arange(1.0, 1025.0).reshape(32, 32) / 1024


def snippet():
    """About 0.5 ms of the work ``realz`` does: an integer loop, dict
    updates, ``Fraction`` sums and small numpy products."""
    total = 0
    for i in range(1500):
        total += (i * i) % 7
    counts: dict = {}
    for i in range(300):
        counts[i & 31] = counts.get(i & 31, 0) + i
    frac = Fraction(0)
    for i in range(1, 60):
        frac += Fraction(1, i)
    product = _MATRIX
    for _ in range(8):
        product = product @ _MATRIX
        product = product / product.max()
    return total, counts, frac, product


class SpeedProbe:
    """Samples :func:`snippet` between :meth:`start` and :meth:`stop`."""

    def __init__(self):
        self.starts: list = []
        self.seconds: list = []
        self._busy = False
        self._previous = None

    def sample(self):
        """Time the snippet once, unless a sample is already running."""
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            snippet()
            self.seconds.append(time.perf_counter() - start)
            self.starts.append(start)
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def slowdown(self, start: float, end: float) -> tuple:
        """``(slowdown, probe seconds inside)`` for the interval
        ``[start, end]`` of ``time.perf_counter()``."""
        lo = bisect.bisect_left(self.starts, start - WINDOW)
        hi = bisect.bisect_right(self.starts, end + WINDOW)
        if lo == hi:  # no sample close by: take the nearest one
            after = lo < len(self.starts) and (lo == 0 or self.starts[lo] - end < start - self.starts[lo - 1])
            lo = lo if after else lo - 1
            hi = lo + 1
        near = self.seconds[lo:hi]
        inside = sum(s for t, s in zip(self.starts[lo:hi], near) if start <= t < end)
        return sum(near) / len(near) / REFERENCE_S, inside

    def scaled(self, start: float, end: float) -> float:
        """The interval's own seconds at the reference speed."""
        factor, inside = self.slowdown(start, end)
        return (end - start - inside) / factor
