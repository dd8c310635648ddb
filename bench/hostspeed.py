"""The host's momentary speed, read with a fixed reference computation.

The benchmark runs on a few cores of a shared host, where the same
single-threaded Python code runs at speeds up to 2x apart, switching
within seconds and sometimes staying slow for tens of seconds.  A run's
raw timings therefore follow the host more than the program.

``SpeedProbe.time_call`` times a call between two readings; a reading is
the time of a fixed exact-arithmetic loop (the kind of work the library
does).  After the run, a call's time is adjusted to a host running at
full speed:

    adjusted = raw * FULL_SPEED_READING_S / mean reading near the call

where the readings near a call are those taken from one call-length
before it starts to one call-length after it ends: the two around it for
a short call, and those of its neighbours as well for a long one, during
which the host may have changed speed several times.  The result is the
call's time in units of the reference loop, expressed in seconds of the
machine the benchmark was sized on.  The reference loop is the
benchmark's own code, so a change to the library moves the raw time and
leaves the readings alone.

The constant, and not the run's fastest reading, sets the scale: some
runs never see the host at full speed, and their fastest reading is then
slow by anything up to 50%.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# Terms of the reference harmonic sum: about 0.6 ms at full speed on a
# 2.1 GHz Xeon core.
REFERENCE_TERMS = 300
# A reading is the best of this many reference runs back to back.
REPEATS = 2
# The usual fastest reading of a 40 s run on a 2-core Intel Xeon VM at
# 2.1 GHz with Python 3.11.7 (0.585-0.61 ms in most runs).
FULL_SPEED_READING_S = 0.0006


def _reference() -> Fraction:
    s = Fraction(0)
    for i in range(1, REFERENCE_TERMS + 1):
        s += Fraction(1, i)
    return s


class SpeedProbe:
    def __init__(self) -> None:
        # Readings in time order: the call start or end each stands for,
        # and the reading in seconds.
        self.stamps: list[float] = []
        self.readings: list[float] = []
        self.calls: list[tuple[float, float]] = []

    def _read(self) -> float:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _reference()
            best = min(best, time.perf_counter() - t0)
        return best

    def time_call(self, fn):
        """Calls ``fn()`` between two readings: (result, index of the call)."""
        before = self._read()
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        after = self._read()
        self.stamps += [start, end]
        self.readings += [before, after]
        self.calls.append((start, end))
        return result, len(self.calls) - 1

    def raw(self, call: int) -> float:
        start, end = self.calls[call]
        return end - start

    def adjusted(self, call: int) -> float:
        """The call's time at full speed."""
        start, end = self.calls[call]
        length = end - start
        lo = bisect.bisect_left(self.stamps, start - length)
        hi = bisect.bisect_right(self.stamps, end + length)
        return length * FULL_SPEED_READING_S / statistics.fmean(self.readings[lo:hi])

    def mean_slowdown(self) -> float:
        return statistics.fmean(self.readings) / FULL_SPEED_READING_S
