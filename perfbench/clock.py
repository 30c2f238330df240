"""Time at reference speed.

On a shared host the speed of the same Python code drifts by a third within
seconds: over 40 s on the 2-core VM this benchmark was tuned on, a fixed
loop's time moved between 28 ms and 45 ms, and an operation timed next to it
moved in step, their ratio staying within 5 %.  While a ReferenceClock is
active, a SIGALRM handler runs `reference_ms()` every PERIOD_S seconds, in
the middle of whatever the program is doing.  An interval's time at
reference speed is its wall time minus the reference runs inside it, scaled
by NOMINAL_MS times the mean reference speed (one over the reference time)
around and inside it.  Changes to the program move such times; the host's
load mostly does not.  Single samples range over a factor of two; over 6
minutes of repeated desk passes, one operation's scaled time varied by 6-8 %
(interquartile range over median) and its wall time by 36 %.  Averaging over
a wider window around the interval did worse and more samples did better,
hence the short period.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

# the reference time scaled times are expressed at; reference_ms() took
# 0.65-1.1 ms on that VM, depending on the load of the host
NOMINAL_MS = 1.0
PERIOD_S = 0.01


def reference_ms() -> float:
    """Wall time of a fixed pure-Python loop that allocates tuples, strings
    and lists and fills and sorts them, as the program's term and table
    code does.  The cyclic collector is paused meanwhile, so a collection
    of the program's heap is never charged to the loop."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        items = [(i * 7919 % 1000, str(i)) for i in range(1500)]
        table: dict[int, list[str]] = {}
        for key, value in items:
            table.setdefault(key, []).append(value)
        items.sort()
        return (time.perf_counter() - started) * 1000.0
    finally:
        if collecting:
            gc.enable()


class ReferenceClock:
    """Samples the reference speed while active; converts perf_counter
    intervals taken meanwhile into milliseconds at reference speed once it
    has stopped."""

    def __init__(self) -> None:
        self.ends: list[float] = []  # perf_counter when each sample finished
        self.samples_ms: list[float] = []

    def _sample(self, *_) -> None:
        self.samples_ms.append(reference_ms())
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "ReferenceClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _samples(self, start: float, end: float) -> tuple[int, int]:
        # a sample runs between two bytecodes of the main thread, so it lies
        # wholly inside or wholly outside any interval timed there
        return bisect.bisect_left(self.ends, start), bisect.bisect_right(self.ends, end)

    def net_ms(self, start: float, end: float) -> float:
        """Wall time of the interval minus the reference runs inside it."""
        first, after = self._samples(start, end)
        return (end - start) * 1000.0 - sum(self.samples_ms[first:after])

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_MS times the mean speed, one over the sample, of the
        samples inside the interval and the one on each side of it."""
        first, after = self._samples(start, end)
        around = self.samples_ms[max(first - 1, 0) : after + 1]
        return NOMINAL_MS * statistics.fmean(1.0 / ms for ms in around)

    def scaled_ms(self, start: float, end: float) -> float:
        return self.net_ms(start, end) * self.factor(start, end)
