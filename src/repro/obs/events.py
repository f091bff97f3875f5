"""The versioned trace event schema and its JSONL sinks.

A trace is a sequence of flat JSON objects, one per line.  Every event has

* ``type`` — one of :data:`EVENT_TYPES`;
* ``t`` — seconds since the trace's origin (the tracer's first read of its
  clock), a float;

and the type's required fields listed in :data:`EVENT_TYPES`.  Extra fields
are allowed (the schema is open for forward compatibility); missing
required fields are not.  The first event of every trace is ``trace_start``
carrying ``v`` — the schema version readers dispatch on.

``docs/observability.md`` documents every event type and field.
"""

from __future__ import annotations

import json
from typing import Dict, FrozenSet, List, Optional, TextIO

from ..exceptions import ReproError

#: Bump when an existing field changes meaning; adding fields is compatible.
TRACE_SCHEMA_VERSION = 1

#: Event type -> required fields (beyond ``type`` and ``t``).
EVENT_TYPES: Dict[str, FrozenSet[str]] = {
    # Lifecycle.
    "trace_start": frozenset({"v", "tool"}),
    # One chase run.
    "chase_start": frozenset(
        {"variant", "strategy", "backend", "workers", "n_rules", "n_database_atoms"}
    ),
    "round": frozenset(
        {"round", "delta_size", "considered", "fired", "atoms_created", "dur"}
    ),
    "rule_round": frozenset(
        {"round", "rule", "enumerated", "fired", "atoms_created", "nulls_invented", "dur"}
    ),
    "worker_round": frozenset({"round", "worker", "considered", "fired", "dur"}),
    "sql_family": frozenset(
        {"family", "statements", "seconds_total", "seconds_max", "rows_changed", "rows_read"}
    ),
    "chase_end": frozenset(
        {
            "terminated",
            "stop_reason",
            "rounds",
            "triggers_fired",
            "atoms_created",
            "instance_size",
            "dur",
        }
    ),
    # The sweep runner.
    "sweep_start": frozenset({"n_tasks", "workers", "kinds"}),
    "sweep_task": frozenset({"task_id", "kind", "rows", "resumed", "dur"}),
    "sweep_end": frozenset({"completed", "pending", "dur"}),
    # The fuzz harness.
    "fuzz_start": frozenset({"seeds", "pools"}),
    "fuzz_case": frozenset({"name", "status", "dur"}),
    "fuzz_progress": frozenset(
        {"cases", "cases_per_s", "coverage_edges", "pool_size", "divergent"}
    ),
    "fuzz_end": frozenset({"cases", "divergent", "coverage_edges", "pool_size", "dur"}),
}


class TraceFormatError(ReproError):
    """Raised when a trace file or event does not satisfy the schema."""


def validate_event(event: object, line_number: Optional[int] = None) -> Dict[str, object]:
    """Check one decoded event against the schema; return it on success."""
    where = "" if line_number is None else f" (line {line_number})"
    if not isinstance(event, dict):
        raise TraceFormatError(f"trace event is not a JSON object{where}")
    event_type = event.get("type")
    if not isinstance(event_type, str):
        raise TraceFormatError(f"trace event has no 'type' field{where}")
    required = EVENT_TYPES.get(event_type)
    if required is None:
        raise TraceFormatError(f"unknown trace event type {event_type!r}{where}")
    if not isinstance(event.get("t"), (int, float)):
        raise TraceFormatError(f"{event_type} event has no numeric 't' field{where}")
    missing = sorted(required - set(event))
    if missing:
        raise TraceFormatError(
            f"{event_type} event is missing required field(s) {', '.join(missing)}{where}"
        )
    return event


class TraceSink:
    """Where events go.  Implementations must tolerate concurrent emit()."""

    def emit(self, event: Dict[str, object]) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class ListTraceSink(TraceSink):
    """Collects events in memory (tests, trace-report on live runs)."""

    def __init__(self) -> None:
        self.events: List[Dict[str, object]] = []

    def emit(self, event: Dict[str, object]) -> None:
        self.events.append(event)


class JsonlTraceSink(TraceSink):
    """Writes one sorted-key JSON object per line to a file or stream.

    Lines are flushed as they are written so a killed run leaves a readable
    prefix — the same durability stance as the store's round-granular
    commits.
    """

    def __init__(self, target) -> None:
        if hasattr(target, "write"):
            self._stream: TextIO = target
            self._owns_stream = False
        else:
            self._stream = open(target, "w", encoding="utf-8")
            self._owns_stream = True

    def emit(self, event: Dict[str, object]) -> None:
        self._stream.write(json.dumps(event, sort_keys=True) + "\n")
        self._stream.flush()

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()


def read_trace(path) -> List[Dict[str, object]]:
    """Load and validate a JSONL trace file.

    Raises :class:`TraceFormatError` on malformed JSON, schema violations,
    an empty file, or a trace not starting with ``trace_start``.
    """
    events: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as stream:
        for line_number, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            try:
                decoded = json.loads(line)
            except ValueError as error:
                raise TraceFormatError(
                    f"trace line {line_number} is not valid JSON: {error}"
                ) from None
            events.append(validate_event(decoded, line_number))
    if not events:
        raise TraceFormatError(f"trace file {path} contains no events")
    first = events[0]
    if first["type"] != "trace_start":
        raise TraceFormatError("trace does not start with a trace_start event")
    if first.get("v") != TRACE_SCHEMA_VERSION:
        raise TraceFormatError(
            f"unsupported trace schema version {first.get('v')!r} "
            f"(this reader understands v{TRACE_SCHEMA_VERSION})"
        )
    return events
