"""Unit tests for the observability layer: clocks, metrics, events, tracer.

The trace schema and the aggregation helpers are pinned here in isolation;
``test_trace_golden.py`` pins the end-to-end JSONL a real chase writes, and
the property suite (``tests/property/test_conformance.py``) holds traced
runs byte-identical to untraced ones.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.obs import (
    EVENT_TYPES,
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    JsonlTraceSink,
    ListTraceSink,
    ManualClock,
    MetricsRegistry,
    MonotonicClock,
    StatementMetrics,
    TraceFormatError,
    Tracer,
    as_tracer,
    hot_rules,
    hot_statements,
    read_trace,
    render_report,
    round_totals,
    sql_family_stats,
    validate_event,
)


class TestClocks:
    def test_manual_clock_advances_by_step_per_read(self):
        clock = ManualClock(start=10.0, step=0.5)
        assert clock.now() == 10.0
        assert clock.now() == 10.5
        clock.advance(2.0)
        assert clock.now() == 13.0

    def test_manual_clock_is_frozen_without_a_step(self):
        clock = ManualClock()
        assert clock.now() == clock.now() == 0.0

    def test_monotonic_clock_never_goes_backwards(self):
        clock = MonotonicClock()
        readings = [clock.now() for _ in range(5)]
        assert readings == sorted(readings)


class TestMetricsRegistry:
    def test_counters_and_histograms_accumulate(self):
        registry = MetricsRegistry()
        registry.counter("hits", family="a").add()
        registry.counter("hits", family="a").add(4)
        registry.histogram("seconds", family="a").observe(0.25)
        registry.histogram("seconds", family="a").observe(0.75)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == [
            {"name": "hits", "labels": {"family": "a"}, "value": 5}
        ]
        (histogram,) = snapshot["histograms"]
        assert histogram["count"] == 2
        assert histogram["total"] == 1.0
        assert histogram["max"] == 0.75

    def test_snapshot_is_sorted_and_json_able(self):
        registry = MetricsRegistry()
        registry.counter("z", family="b").add()
        registry.counter("a", family="c").add()
        registry.counter("a", family="b").add()
        snapshot = registry.snapshot()
        names = [(entry["name"], entry["labels"]["family"]) for entry in snapshot["counters"]]
        assert names == [("a", "b"), ("a", "c"), ("z", "b")]
        json.dumps(snapshot)  # must not raise

    def test_statement_metrics_records_through_an_injected_clock(self):
        clock = ManualClock(step=0.25)
        metrics = StatementMetrics(clock=clock)
        started = metrics.start()
        metrics.record("trigger-join", started, rows_read=7)
        rows = sql_family_stats(metrics.registry.snapshot())
        assert rows == [
            {
                "family": "trigger-join",
                "statements": 1,
                "seconds_total": 0.25,
                "seconds_max": 0.25,
                "rows_changed": 0,
                "rows_read": 7,
            }
        ]

    def test_sql_family_stats_sorts_by_family(self):
        metrics = StatementMetrics(clock=ManualClock())
        for family in ("pushdown-stage", "trigger-join", "pushdown-apply"):
            metrics.record(family, 0.0, rows_changed=1)
        families = [row["family"] for row in sql_family_stats(metrics.registry.snapshot())]
        assert families == sorted(families)


class TestEventSchema:
    def test_every_event_type_declares_its_required_fields(self):
        assert "trace_start" in EVENT_TYPES
        for required in EVENT_TYPES.values():
            assert "type" not in required and "t" not in required

    def test_validate_event_accepts_extra_fields(self):
        event = {"type": "trace_start", "t": 0.0, "v": 1, "tool": "chase", "extra": 1}
        assert validate_event(event) is event

    @pytest.mark.parametrize(
        "event, fragment",
        [
            ("not-a-dict", "not a JSON object"),
            ({"t": 0.0}, "no 'type'"),
            ({"type": "no-such-event", "t": 0.0}, "unknown trace event type"),
            ({"type": "trace_start", "v": 1, "tool": "x"}, "no numeric 't'"),
            ({"type": "trace_start", "t": 0.0, "v": 1}, "missing required field(s) tool"),
        ],
    )
    def test_validate_event_rejects_malformed_events(self, event, fragment):
        with pytest.raises(TraceFormatError, match=None) as excinfo:
            validate_event(event)
        assert fragment in str(excinfo.value)

    def test_jsonl_sink_writes_one_sorted_object_per_line(self):
        stream = io.StringIO()
        sink = JsonlTraceSink(stream)
        sink.emit({"type": "trace_start", "t": 0.0, "v": 1, "tool": "chase"})
        sink.close()  # a borrowed stream is not closed
        line = stream.getvalue()
        assert line.endswith("\n") and line.count("\n") == 1
        assert line.index('"t"') < line.index('"tool"') < line.index('"type"')

    def test_read_trace_round_trips_a_written_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path)
        tracer = Tracer(sink, clock=ManualClock(step=0.1), tool="chase")
        tracer.emit(
            "round", round=1, delta_size=2, considered=3, fired=3, atoms_created=1, dur=0.1
        )
        tracer.close()
        events = read_trace(path)
        assert [event["type"] for event in events] == ["trace_start", "round"]
        assert events[0]["v"] == TRACE_SCHEMA_VERSION

    @pytest.mark.parametrize(
        "content, fragment",
        [
            ("", "contains no events"),
            ("{broken\n", "not valid JSON"),
            ('{"type": "round", "t": 0}\n', "missing required field"),
            (
                '{"type": "chase_end", "t": 0, "terminated": true, "stop_reason": "f", '
                '"rounds": 1, "triggers_fired": 0, "atoms_created": 0, '
                '"instance_size": 0, "dur": 0}\n',
                "does not start with a trace_start",
            ),
            (
                '{"type": "trace_start", "t": 0, "v": 99, "tool": "chase"}\n',
                "unsupported trace schema version",
            ),
        ],
    )
    def test_read_trace_rejects_malformed_files(self, tmp_path, content, fragment):
        path = tmp_path / "trace.jsonl"
        path.write_text(content)
        with pytest.raises(TraceFormatError) as excinfo:
            read_trace(path)
        assert fragment in str(excinfo.value)


class TestTracer:
    def test_first_event_is_trace_start_with_the_schema_version(self):
        sink = ListTraceSink()
        Tracer(sink, clock=ManualClock(), tool="fuzz")
        assert sink.events == [
            {"type": "trace_start", "t": 0.0, "v": TRACE_SCHEMA_VERSION, "tool": "fuzz"}
        ]

    def test_events_are_stamped_origin_relative(self):
        clock = ManualClock(start=100.0)
        sink = ListTraceSink()
        tracer = Tracer(sink, clock=clock, tool="chase")
        clock.advance(1.5)
        tracer.emit("sweep_start", n_tasks=1, workers=1, kinds=["sl"])
        assert sink.events[-1]["t"] == 1.5

    def test_span_emits_start_time_and_duration_on_exit(self):
        clock = ManualClock()
        sink = ListTraceSink()
        tracer = Tracer(sink, clock=clock, tool="sweep")
        with tracer.span("sweep_task", task_id="t", kind="sl", rows=1, resumed=False) as span:
            clock.advance(2.0)
            span.annotate(rows=5)
        event = sink.events[-1]
        assert event["type"] == "sweep_task"
        assert event["t"] == 0.0
        assert event["dur"] == 2.0
        assert event["rows"] == 5

    def test_emitting_an_invalid_event_raises_before_the_sink_sees_it(self):
        sink = ListTraceSink()
        tracer = Tracer(sink, clock=ManualClock(), tool="chase")
        with pytest.raises(TraceFormatError):
            tracer.emit("round", round=1)  # missing the other required fields
        assert [event["type"] for event in sink.events] == ["trace_start"]

    def test_null_tracer_is_disabled_and_inert(self):
        assert not NULL_TRACER.enabled
        NULL_TRACER.emit("anything", bogus=True)  # not validated, not recorded
        with NULL_TRACER.span("anything") as span:
            span.annotate(x=1)
        assert NULL_TRACER.now() == 0.0

    def test_as_tracer_normalises_none(self):
        assert as_tracer(None) is NULL_TRACER
        sink = ListTraceSink()
        tracer = Tracer(sink, clock=ManualClock())
        assert as_tracer(tracer) is tracer


class TestParallelTrace:
    """What a traced ``workers=2`` chase over sqlite carries: the round
    stream, one ``worker_round`` per (worker, round), and no ``sql_family``
    (the workers' indexed matching issues no labelled statement, and no
    worker ships a metrics snapshot)."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_event_types_of_a_parallel_sqlite_run(self, executor):
        from repro.chase.engine import chase
        from repro.core.parser import parse_database, parse_rules

        database = parse_database("R(a,b).\nR(b,a).\nR(b,c).\n")
        tgds = parse_rules("R(x,y) -> S(y,z)\nS(x,y), R(z,x) -> T(z,y)\n")
        sink = ListTraceSink()
        chase(
            database, tgds, backend="sqlite", workers=2, executor=executor,
            tracer=Tracer(sink),
        )
        expected = {
            "trace_start", "chase_start", "round", "rule_round", "worker_round", "chase_end",
        }
        assert {event["type"] for event in sink.events} == expected
        rounds = {event["round"] for event in sink.events if event["type"] == "round"}
        workers = {
            (event["round"], event["worker"])
            for event in sink.events
            if event["type"] == "worker_round"
        }
        assert workers == {(round, worker) for round in rounds for worker in (0, 1)}


def _round(round, fired, atoms, dur=0.0):
    return {
        "type": "round", "t": 0.0, "round": round, "delta_size": 0,
        "considered": fired, "fired": fired, "atoms_created": atoms, "dur": dur,
    }


def _rule_round(rule, fired, dur):
    return {
        "type": "rule_round", "t": 0.0, "round": 1, "rule": rule, "enumerated": fired,
        "fired": fired, "atoms_created": fired, "nulls_invented": 0, "dur": dur,
    }


def _chase_end(fired, atoms):
    return {
        "type": "chase_end", "t": 0.0, "terminated": True, "stop_reason": "fixpoint",
        "rounds": 2, "triggers_fired": fired, "atoms_created": atoms,
        "instance_size": atoms, "dur": 0.0,
    }


TRACE_START = {"type": "trace_start", "t": 0.0, "v": TRACE_SCHEMA_VERSION, "tool": "chase"}


class TestReport:
    def test_round_totals_sums_round_events(self):
        events = [TRACE_START, _round(1, 3, 2), _round(2, 1, 0)]
        assert round_totals(events) == (4, 2)

    def test_hot_rules_ranks_by_time_then_rule(self):
        events = [TRACE_START, _rule_round(0, 1, 0.1), _rule_round(1, 9, 0.5),
                  _rule_round(2, 1, 0.1)]
        ranked = hot_rules(events)
        assert [r["rule"] for r in ranked] == ["1", "0", "2"]
        assert hot_rules(events, top=1)[0]["fired"] == 9

    def test_hot_statements_aggregates_sql_family_events(self):
        family = {
            "type": "sql_family", "t": 0.0, "family": "trigger-join", "statements": 2,
            "seconds_total": 0.4, "seconds_max": 0.3, "rows_changed": 0, "rows_read": 10,
        }
        ranked = hot_statements([TRACE_START, family, dict(family)])
        assert ranked == [
            {"family": "trigger-join", "statements": 4, "seconds_total": 0.8,
             "seconds_max": 0.3, "rows_changed": 0, "rows_read": 20}
        ]

    def test_render_report_cross_checks_round_sums_against_chase_end(self):
        good = [TRACE_START, _round(1, 3, 2), _round(2, 1, 0), _chase_end(4, 2)]
        report = render_report(good)
        assert "cross-check: round events sum exactly" in report
        assert "(fired=4, atoms=2)" in report

    def test_render_report_raises_on_an_inconsistent_trace(self):
        bad = [TRACE_START, _round(1, 3, 2), _chase_end(99, 2)]
        with pytest.raises(TraceFormatError, match="internally inconsistent"):
            render_report(bad)
