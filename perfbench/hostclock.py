"""Wall time corrected for the speed of a shared host.

On a shared machine the same Python code runs 20-60 % slower for seconds to
minutes at a time, in CPU time as much as in wall time.  A fixed pure-Python
chunk of work (``calibration``) is timed between the units of measured work,
and measured work slows with it: over two-minute probes, pair times and the
adjacent calibration times correlated at r = 0.9, and 10-second medians of
pair time swung by 50 % while their ratio to calibration time swung by 12 %.

A HostClock keeps the calibrations of one process as marks; a mark's
slowdown is its chunk time over REFERENCE_S, the chunk's time on a quiet
host.  The stretch of wall time between two marks is divided by the mean
of their slowdowns, and time spent calibrating is left out.  The result is
in reference seconds: the time the work would take on the quiet host.  The
correction is not complete: the program slows about 1.1-1.25 times as much
as the chunk (log-log slope), so a busier host still reads a little slower.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

# Time of one calibration chunk on the quiet host (a 2-core x86-64 VM,
# CPython 3.11).
REFERENCE_S = 0.0027


def calibration():
    """A fixed mix of integer, Fraction, dict and complex work, like the
    program's; about 3 ms on the reference host."""
    acc = 0
    for i in range(12_000):
        acc = (acc * 31 + i) % 1_000_003
    f = Fraction(0)
    for i in range(1, 120):
        f += Fraction(1, i)
    d = {}
    for i in range(1500):
        d[i % 97] = d.get(i % 97, 0) + complex(i, 1) * 1.5
    return acc, f, d


class HostClock:
    """Calibration marks of one process, in time order.  Between start()
    and stop() a timer marks every `interval` seconds, wherever the
    program is; mark() adds one by hand."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.slowdowns: list[float] = []
        self._busy = False

    def mark(self) -> None:
        """Times the calibration chunk twice and keeps the faster, so that
        an interrupt inside one chunk does not count as a slow host."""
        if self._busy:  # a timer tick that arrived during a mark
            return
        self._busy = True
        t0 = time.perf_counter()
        best = float("inf")
        for _ in range(2):
            t = time.perf_counter()
            calibration()
            best = min(best, time.perf_counter() - t)
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self.slowdowns.append(best / REFERENCE_S)
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda *_: self.mark())
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def merge(self, marks: dict) -> None:
        """Adds the marks another process took on the same clock."""
        rows = sorted(zip([*self.starts, *marks["starts"]], [*self.ends, *marks["ends"]],
                          [*self.slowdowns, *marks["slowdowns"]]))
        self.starts, self.ends, self.slowdowns = (list(col) for col in zip(*rows))

    def span(self, a: float, b: float) -> tuple[float, float]:
        """Wall seconds and reference seconds of [a, b], calibrations left
        out.  A mark must precede a and follow b."""
        if not self.ends or self.ends[0] > a or self.starts[-1] < b:
            raise ValueError("the interval is not enclosed by marks")
        raw = ref = 0.0
        i = max(0, bisect.bisect_right(self.ends, a) - 1)
        while i + 1 < len(self.starts) and self.ends[i] < b:
            lo, hi = max(a, self.ends[i]), min(b, self.starts[i + 1])
            if hi > lo:
                slowdown = (self.slowdowns[i] + self.slowdowns[i + 1]) / 2
                raw += hi - lo
                ref += (hi - lo) / slowdown
            i += 1
        return raw, ref
