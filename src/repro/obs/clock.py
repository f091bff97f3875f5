"""Injectable clocks: the one module of the tree allowed to read wall time.

Everything that times anything reads time through this module: the tracer
and the SQL statement metrics take a :class:`Clock` and call ``clock.now()``;
the termination checkers' phases (``TimingBreakdown.measure``) and the CLI's
elapsed line call :func:`perf_counter_s`; deadlines call :func:`monotonic_s`.
The two functions below are the only sanctioned wall-clock reads in
``src/repro``; reprolint's determinism rule enforces that tree-wide (clock
calls anywhere else are findings), so the audit surface for "could timing
leak into results?" is exactly this file.

Tests inject :class:`ManualClock` to make every ``t``/``dur`` field of a
trace deterministic.
"""

from __future__ import annotations

import time


def perf_counter_s() -> float:
    """The process-wide high-resolution monotonic clock, in seconds."""
    # reprolint: disable=determinism -- the sanctioned wall-clock read: consumers inject a Clock, so no chase result ever depends on it
    return time.perf_counter()


def monotonic_s() -> float:
    """The coarse monotonic clock, in seconds (deadline arithmetic)."""
    # reprolint: disable=determinism -- the sanctioned wall-clock read: only ever bounds how long loops run, never what they compute
    return time.monotonic()


class Clock:
    """Duck-typed clock protocol: anything with a ``now() -> float``."""

    def now(self) -> float:
        raise NotImplementedError


class MonotonicClock(Clock):
    """The real clock: monotonic seconds from :func:`perf_counter_s`."""

    __slots__ = ()

    def now(self) -> float:
        return perf_counter_s()


class ManualClock(Clock):
    """A test clock advanced explicitly (optionally by a fixed step per read).

    With ``step > 0`` every ``now()`` read returns the current time and then
    advances it, so spans get stable non-zero durations without any wall
    clock involved.
    """

    __slots__ = ("_now", "step")

    def __init__(self, start: float = 0.0, step: float = 0.0) -> None:
        self._now = float(start)
        self.step = float(step)

    def now(self) -> float:
        value = self._now
        self._now += self.step
        return value

    def advance(self, seconds: float) -> None:
        self._now += seconds

