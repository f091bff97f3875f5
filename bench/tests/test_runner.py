"""Runner: raw runs in, declared metrics out — fakes for execute and reporter."""

import re

import pytest

from bench.runner import Runner, UndeclaredMetric, contract_line, measure
from bench.tests.fakes import FakeWorkload, RecordingReporter, fake_spec
from bench.workload import Traced
from repro.obs import ManualClock

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def in_process(workload_factory, peak_rss_mb=64.0):
    """An ``execute`` that measures a fresh fake in this process."""

    def execute(name, trace):
        clock = ManualClock()
        raw = measure(
            workload_factory(clock), seed=1, seconds=5.0, trace=trace, clock=clock,
            collect=lambda: None,
        )
        raw["peak_rss_mb"] = peak_rss_mb
        return raw

    return execute


def test_both_passes_merge_into_one_entry_and_reach_the_reporter():
    reporter = RecordingReporter()
    runner = Runner(fake_spec(), in_process(FakeWorkload), reporter)
    entries = runner.run(["fake"], [0, 1])
    assert reporter.finished == ["fake"]
    entry = entries["fake"]
    assert entry is reporter.entries["fake"]
    assert entry["why"] == "a scripted workload"
    assert entry["params"] == {"widgets": 100}
    wall = entry["end_to_end"]["wall_s"]
    # Five timed operations; the faster half (three of them) is summarised.
    assert (wall["value"], wall["unit"], wall["n"], wall["unresolved"]) == (1.0, "s", 3, False)
    assert entry["end_to_end"]["units_per_s"]["value"] == 100.0
    assert entry["end_to_end"]["setup_s"]["value"] == 2.0
    assert entry["end_to_end"]["peak_rss_mb"]["value"] == 64.0
    assert entry["samples"]["wall_s"] == [1.0] * 5
    # 6 end-to-end operations; then cold, 3 warm and the traced one
    assert (entry["attempted"], entry["failed"], entry["fail_ratio"]) == (11, 0, 0.0)


def test_every_declared_layer_is_reported_and_idle_layers_read_zero():
    runner = Runner(fake_spec(), in_process(FakeWorkload), RecordingReporter())
    layers = runner.run(["fake"], [1])["fake"]["per_layer"]
    assert list(layers) == list(fake_spec().per_layer)
    assert layers["fake.layer_s"] == {"value": 1.25, "unit": "s"}
    assert layers["fake.idle_layer_s"] == {"value": 0, "unit": "s"}


def test_an_undeclared_layer_name_is_refused():
    def factory(clock):
        return FakeWorkload(clock, traced=Traced(wall_s=1.0, layers={"fake.surprise_s": 1.0}))

    runner = Runner(fake_spec(), in_process(factory), RecordingReporter())
    with pytest.raises(UndeclaredMetric, match="fake.surprise_s"):
        runner.run(["fake"], [1])


def test_an_unknown_workload_is_refused():
    runner = Runner(fake_spec(), in_process(FakeWorkload), RecordingReporter())
    with pytest.raises(KeyError, match="nope"):
        runner.run(["nope"], [0])


def test_a_spread_above_the_bound_is_marked_unresolved():
    def noisy(clock):
        return FakeWorkload(clock, operation_seconds=[1.0, 1.0, 1.3, 0.8, 1.2, 0.9, 1.0])

    entry = Runner(fake_spec(bound=0.10), in_process(noisy), RecordingReporter()).run(
        ["fake"], [0]
    )["fake"]
    wall = entry["end_to_end"]["wall_s"]
    assert wall["spread"] > 0.10 and wall["unresolved"] is True
    assert entry["end_to_end"]["setup_s"]["unresolved"] is False
    steady = Runner(fake_spec(bound=0.50), in_process(noisy), RecordingReporter()).run(
        ["fake"], [0]
    )["fake"]
    assert steady["end_to_end"]["wall_s"]["unresolved"] is False


def test_a_slow_phase_covering_half_the_run_does_not_move_the_timing_metrics():
    def half_contended(clock):
        return FakeWorkload(clock, operation_seconds=[1.0, 1.0, 1.25, 1.0, 1.5, 1.0, 1.25])

    entry = Runner(fake_spec(), in_process(half_contended), RecordingReporter()).run(
        ["fake"], [0]
    )["fake"]
    assert entry["samples"]["wall_s"] == [1.0, 1.25, 1.0, 1.5, 1.0]
    assert entry["end_to_end"]["wall_s"]["value"] == 1.0
    assert entry["end_to_end"]["units_per_s"]["value"] == 100.0
    assert entry["end_to_end"]["wall_s"]["unresolved"] is False


def test_failed_operations_show_in_fail_ratio_and_the_contract_line():
    def rejecting(clock):
        return FakeWorkload(clock, rejected=[2, 3])

    entry = Runner(fake_spec(), in_process(rejecting), RecordingReporter()).run(["fake"], [0])[
        "fake"
    ]
    assert (entry["attempted"], entry["failed"]) == (6, 2)
    assert entry["fail_ratio"] == pytest.approx(2 / 6)
    line = contract_line(entry, trace=0)
    assert line["correct"] is False and line["failed"] == 2


def test_contract_line_has_exactly_the_keys_and_metrics_the_driver_reads():
    entry = Runner(fake_spec(), in_process(FakeWorkload), RecordingReporter()).run(
        ["fake"], [0, 1]
    )["fake"]
    end_to_end = contract_line(entry, trace=0)
    assert set(end_to_end) == {"correct", "attempted", "failed", "metrics"}
    assert end_to_end["correct"] is True and end_to_end["attempted"] >= 1
    assert set(end_to_end["metrics"]) == set(fake_spec().end_to_end)
    assert end_to_end["metrics"]["wall_s"] == {"value": 1.0, "unit": "s"}
    per_layer = contract_line(entry, trace=1)
    assert set(per_layer["metrics"]) == set(fake_spec().per_layer)
    for name in list(end_to_end["metrics"]) + list(per_layer["metrics"]):
        assert NAME.fullmatch(name)
