"""Observability: injectable clocks, metrics, and the span-based tracer.

This package is the tree's single timing substrate.  Everything that reads
a clock goes through :mod:`repro.obs.clock` (the only module reprolint's
determinism rule lets touch wall time); everything that counts or times
work publishes through :class:`MetricsRegistry`; everything that narrates a
run emits versioned events through :class:`Tracer` into a JSONL sink that
``repro-experiments trace-report`` turns into hot-rule / hot-statement /
per-round tables.

The cardinal rule — enforced by the property suite
(``tests/property/test_conformance.py::TestTracingTransparency``) — is
that observing a run never changes it: chase results are byte-identical
with tracing on or off, and the disabled tracer costs one attribute test
on the hot path.
"""

from .clock import DEFAULT_CLOCK, Clock, ManualClock, MonotonicClock, monotonic_s, perf_counter_s
from .events import (
    EVENT_TYPES,
    TRACE_SCHEMA_VERSION,
    JsonlTraceSink,
    ListTraceSink,
    TraceFormatError,
    TraceSink,
    read_trace,
    validate_event,
)
from .metrics import Counter, Histogram, MetricsRegistry, StatementMetrics, sql_family_stats
from .report import hot_rules, hot_statements, render_report, round_totals
from .tracer import NULL_TRACER, AnyTracer, Span, Tracer, as_tracer

__all__ = [
    "Clock",
    "ManualClock",
    "MonotonicClock",
    "DEFAULT_CLOCK",
    "perf_counter_s",
    "monotonic_s",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "StatementMetrics",
    "sql_family_stats",
    "EVENT_TYPES",
    "TRACE_SCHEMA_VERSION",
    "TraceSink",
    "ListTraceSink",
    "JsonlTraceSink",
    "TraceFormatError",
    "read_trace",
    "validate_event",
    "Tracer",
    "Span",
    "AnyTracer",
    "NULL_TRACER",
    "as_tracer",
    "hot_rules",
    "hot_statements",
    "render_report",
    "round_totals",
]
