"""Wall times scaled to a nominal machine speed.

On a shared 2-vCPU Xeon virtual machine, CPU speed swings by up to 2x,
within a second and over minutes, because other tenants share the host. The
swing slows all Python code nearly alike. A short fixed loop of Fraction
arithmetic, the program's own staple, tracks it: for one query repeated, the
time scaled by the loop's varied by 3% where the wall time varied by 14%.

``Speed.measure`` runs the loop from an interval timer every ``PERIOD_S``
while the timed calls run, and once more after them. The loop runs with the
garbage collector paused, so that it never pays for the program's garbage,
and its own time is subtracted from the call it interrupted. Each call's
time is multiplied by ``REFERENCE_S`` over the median loop time. It then
reads as wall seconds on a machine where the loop takes ``REFERENCE_S``,
close to that machine's fast state. The loop is the
benchmark's own, so no change to quasired can move it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import traceback
from bisect import bisect_right
from fractions import Fraction
from time import perf_counter

REFERENCE_LOOPS = 300
REFERENCE_S = 0.0012  # the loop's duration at the nominal speed
PERIOD_S = 0.05


def reference() -> float:
    """Seconds one fixed loop of Fraction arithmetic takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        x = Fraction(1, 3)
        for i in range(REFERENCE_LOOPS):
            x = x * Fraction(i % 7 + 1, i % 5 + 2) + 1
            x = Fraction(x.numerator % 1_000_003, x.denominator % 999_983 + 1)
        return perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def call(fn, *args):
    """fn(*args), or a line naming the exception it raised: a query that
    raises is a failed query, not a dead run."""
    try:
        return fn(*args)
    except Exception as exc:
        traceback.print_exc()
        return f"raised {type(exc).__name__}: {exc}"


class Speed:
    def __init__(self) -> None:
        self._ticks: list[tuple[float, float]] = []  # (start, duration) of each loop

    def _tick(self, signum, frame) -> None:
        self._ticks.append((perf_counter(), reference()))

    def measure(self, calls) -> tuple[list, list[float]]:
        """Run (fn, args) pairs one after another; return their results and
        their scaled times. One scale factor serves the whole list, so pass
        one slow call at a time, or a batch of fast ones."""
        self._ticks = []
        outs, starts, ends = [], [], []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            for fn, args in calls:
                starts.append(perf_counter())
                outs.append(call(fn, *args))
                ends.append(perf_counter())
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        times = [e - s for s, e in zip(starts, ends)]
        for start, dt in self._ticks:
            i = bisect_right(starts, start) - 1
            if i >= 0 and start < ends[i]:
                times[i] -= dt
        factor = REFERENCE_S / statistics.median([dt for _, dt in self._ticks] + [reference()])
        return outs, [t * factor for t in times]
