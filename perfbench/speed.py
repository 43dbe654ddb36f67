"""Machine-speed calibration for timings taken on a shared machine.

On a shared virtual machine the speed of the process swings by more than
1.5x, in phases that last seconds.  A fixed probe, a few hundred
microseconds of interpreter work that does not touch wandpack, is timed
every ``PERIOD`` seconds from a SIGALRM handler, so it also runs inside
long operations.  An interval is then converted to *reference seconds*:
each stretch between two probes is scaled by ``REF_S`` over the mean of
the two probe readings, and the probes' own time is left out.  A change
in wandpack moves the operations and not the probe, so it shows in full;
a change in machine speed moves both and cancels.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

PERIOD = 0.05
REPEATS = 3
# The probe's time at the reference speed: about its fastest on a shared
# 2-vCPU x86-64 virtual machine with Python 3.11.
REF_S = 0.0005


def _probe_work():
    d = {}
    acc = Fraction(0)
    items = []
    for i in range(400):
        k = (i % 37, "f%d" % (i % 11))
        d[k] = d.get(k, 0) + i
        if i % 8 == 0:
            acc += Fraction(i % 5 + 1, 2)
        items.append((i * 7919) % 1009)
    items.sort()
    return acc, sorted(d.items()), items[0]


class SpeedClock:
    """Use as a context manager around everything that is timed."""

    def __init__(self):
        self.starts = []  # probe start times, ascending
        self.ends = []
        self.readings = []  # fastest of REPEATS probe runs, seconds
        self._busy = False
        self._old = None

    def probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            best = None
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                _probe_work()
                dt = time.perf_counter() - t0
                best = dt if best is None else min(best, dt)
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        self.readings.append(best)

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            self.probe()
        finally:
            self._busy = False

    def __enter__(self):
        self.probe()
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.probe()
        return False

    def reference_seconds(self, a: float, b: float) -> float:
        """The interval [a, b] of ``time.perf_counter()``, without the
        probes inside it, in seconds at the reference speed.  Both ends
        must lie between the first and the last probe."""
        total = 0.0
        k = max(0, bisect.bisect_right(self.ends, a) - 1)
        while k + 1 < len(self.starts) and self.ends[k] < b:
            lo, hi = max(a, self.ends[k]), min(b, self.starts[k + 1])
            if hi > lo:
                total += (hi - lo) * 2 * REF_S / (self.readings[k] + self.readings[k + 1])
            k += 1
        return total

    def speed(self) -> float:
        """Median probe reading over the reference, 1.0 at the reference
        speed and larger on a slower machine."""
        xs = sorted(self.readings)
        return xs[len(xs) // 2] / REF_S
