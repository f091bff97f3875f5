"""The tracer: spans and events over an injectable clock.

Two implementations share one interface:

* :class:`Tracer` — stamps events with ``t`` (seconds since trace origin)
  and writes them to a :class:`~repro.obs.events.TraceSink`;
* :data:`NULL_TRACER` — the disabled singleton.  Its ``enabled`` flag is
  ``False`` and all methods are no-ops, so instrumented code guards its
  bookkeeping with one attribute test on the untraced hot path.

The invariant the whole layer is built around: **a tracer observes, it
never participates**.  Nothing read from a clock or a sink may flow into
chase results — the property suite pins traced runs byte-identical to
untraced ones.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Union

from .clock import Clock, MonotonicClock
from .events import TRACE_SCHEMA_VERSION, TraceSink, validate_event


class Span:
    """One timed region; a context manager emitting a single event on exit.

    Fields passed at construction and via :meth:`annotate` are merged into
    the event, which carries ``t`` (start, origin-relative) and ``dur``.
    """

    __slots__ = ("_tracer", "_type", "_fields", "_started")

    def __init__(self, tracer: "Tracer", event_type: str, fields: Dict[str, object]) -> None:
        self._tracer = tracer
        self._type = event_type
        self._fields = fields
        self._started = 0.0

    def annotate(self, **fields: object) -> None:
        self._fields.update(fields)

    def __enter__(self) -> "Span":
        self._started = self._tracer.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        ended = self._tracer.now()
        self._tracer._emit_at(self._started, self._type, dur=ended - self._started, **self._fields)


class Tracer:
    """Emits validated, origin-relative events to a sink.

    Thread-safe: the sink write is serialised under a lock (thread-pool
    workers and the coordinator may emit concurrently).  The first event is
    ``trace_start`` carrying the schema version.
    """

    enabled = True

    def __init__(
        self,
        sink: TraceSink,
        clock: Optional[Clock] = None,
        tool: str = "chase",
    ) -> None:
        self._sink = sink
        self._clock = clock if clock is not None else MonotonicClock()
        self._lock = threading.Lock()
        self._origin = self._clock.now()
        self.emit("trace_start", v=TRACE_SCHEMA_VERSION, tool=tool)

    def now(self) -> float:
        """The tracer's clock (absolute); use for explicit span arithmetic."""
        return self._clock.now()

    def emit(self, event_type: str, **fields: object) -> None:
        """Emit one event stamped with the current origin-relative time."""
        self._emit_at(self._clock.now(), event_type, **fields)

    def _emit_at(self, at: float, event_type: str, **fields: object) -> None:
        event: Dict[str, object] = {"type": event_type, "t": round(at - self._origin, 9)}
        event.update(fields)
        validate_event(event)
        with self._lock:
            self._sink.emit(event)

    def span(self, event_type: str, **fields: object) -> Span:
        return Span(self, event_type, dict(fields))

    def close(self) -> None:
        self._sink.close()


class _NullSpan:
    __slots__ = ()

    def annotate(self, **fields: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


class _NullTracer:
    """The disabled tracer: every operation is a no-op."""

    enabled = False
    _span = _NullSpan()

    def now(self) -> float:
        return 0.0

    def emit(self, event_type: str, **fields: object) -> None:
        pass

    def span(self, event_type: str, **fields: object) -> _NullSpan:
        return self._span

    def close(self) -> None:
        pass


#: The shared disabled tracer; identity-safe to pass everywhere.
NULL_TRACER = _NullTracer()

#: What instrumented code accepts: a live tracer or the disabled singleton.
AnyTracer = Union[Tracer, _NullTracer]


def as_tracer(tracer: Optional[AnyTracer]) -> AnyTracer:
    """Normalise an optional tracer argument: ``None`` -> :data:`NULL_TRACER`."""
    return NULL_TRACER if tracer is None else tracer
