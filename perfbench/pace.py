"""Host speed, read while the parts of a round run.

On a shared host the speed of a CPU-bound loop drifts by 20-50 % over
seconds, and the process's CPU time drifts with it (the host's other
tenants slow each instruction; they do not take the CPU away).  A
round's parts are therefore timed in *reference seconds*: each part's
wall time is scaled by ``REF_S`` over the mean time of a fixed
calibration slice run during the part and just before and after it.
The slice is plain Python and imports nothing from the program, so a
change to the program cannot move it; a part that takes twice as long
against the same slice reads twice as slow.

During a part an interval timer runs one slice every ``TICK_S``; the
slice's own time is taken out of the part's.  Parts shorter than a tick
are scaled by the readings that bracket them.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

#: Iterations of one calibration slice.
SLICE_N = 40_000
#: Interval of the slices run while a part is timed.
TICK_S = 0.05
#: A bracketing reading is taken once a part ends this long after the
#: last reading.
READ_EVERY_S = 0.1
#: Median slice time on the host the benchmark was tuned on (2 vCPUs of
#: a shared x86-64 host, CPython 3.12), in a quiet spell.  Only ratios
#: of reference seconds matter; this keeps them near wall seconds there.
REF_S = 0.0045


def _slice() -> float:
    t = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(SLICE_N):
        table[i & 1023] = i
        acc += (i * 7) % 13
    return time.perf_counter() - t


def reading() -> float:
    """Seconds of one calibration slice, now (median of three)."""
    return statistics.median(_slice() for _ in range(3))


def scale(before: float, after: float) -> float:
    """Factor from wall to reference seconds between two readings."""
    return REF_S / ((before + after) / 2)


class Meter:
    """Times the parts of one round in reference seconds.

    ``with meter.part(key): ...`` times one part; ``finish()`` stops the
    timer and returns ``{key: reference seconds}``.  With
    ``ticks=False`` (traced runs, whose spans must not hold slices)
    every part is scaled by its bracketing readings only.
    """

    def __init__(self, ticks: bool = True) -> None:
        self._readings: list[tuple[float, float]] = []
        self._parts: list[tuple[object, float, float, float]] = []
        self._paused = 0.0
        self._ticks = ticks
        self._bracket()
        if ticks:
            self._handler = signal.signal(signal.SIGALRM, self._tick)

    def _bracket(self) -> None:
        self._readings.append((time.perf_counter(), reading()))

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        self._readings.append((t, _slice()))
        self._paused += time.perf_counter() - t

    @contextmanager
    def part(self, key):
        paused = self._paused
        if self._ticks:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if self._ticks:
                signal.setitimer(signal.ITIMER_REAL, 0)
        self._parts.append((key, t, end, end - t - (self._paused - paused)))
        if end - self._readings[-1][0] >= READ_EVERY_S:
            self._bracket()

    def finish(self) -> dict:
        if self._ticks:
            signal.signal(signal.SIGALRM, self._handler)
        self._bracket()
        times = [t for t, _ in self._readings]
        out = {}
        for key, start, end, seconds in self._parts:
            lo = max(i for i, t in enumerate(times) if t <= start)
            hi = min(i for i, t in enumerate(times) if t >= end)
            mean = statistics.fmean(s for _, s in self._readings[lo:hi + 1])
            out[key] = seconds * REF_S / mean
        return out
