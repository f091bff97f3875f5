"""The layer-sum check and what the table says about it."""

import io

import pytest

from bench.report import TableReporter, build_report, host_stamp
from bench.runner import Runner
from bench.termination_workloads import _attribution
from bench.tests.fakes import FakeWorkload, RecordingReporter, fake_spec
from bench.tests.test_runner import in_process


def test_unattributed_time_is_the_checker_wall_minus_the_stage_sum():
    layers = _attribution(check_s=2.0, stage_seconds=[1.0, 0.5, 0.25])
    assert layers == {
        "termination.check_s": 2.0,
        "termination.unattributed_s": 0.25,
        "termination.unattributed_ratio": 0.125,
    }
    # Stages re-run apart can also overshoot the checker's own wall time.
    assert _attribution(1.0, [0.6, 0.5])["termination.unattributed_ratio"] == pytest.approx(-0.1)


def entry_with_ratio(ratio):
    return {
        "why": "w", "units": 10, "unit": "rules", "attempted": 3, "failed": 0,
        "fail_ratio": 0.0, "problems": [], "traced_wall_s": 2.0,
        "per_layer": {
            "termination.check_s": {"value": 2.0, "unit": "s"},
            "termination.unattributed_ratio": {"value": ratio, "unit": "ratio"},
            "chase.engine.run_s": {"value": 0, "unit": "s"},
        },
    }


def test_the_table_flags_a_layer_sum_more_than_ten_percent_off():
    out = io.StringIO()
    TableReporter(out).workload_finished("x", entry_with_ratio(0.125))
    assert "termination.unattributed_ratio is +12.5%" in out.getvalue()
    out = io.StringIO()
    TableReporter(out).workload_finished("x", entry_with_ratio(0.05))
    assert "NOTE" not in out.getvalue()


def test_the_table_names_every_metric_with_its_unit_and_skips_idle_layers():
    out = io.StringIO()
    Runner(fake_spec(), in_process(FakeWorkload), TableReporter(out)).run(["fake"], [0, 1])
    text = out.getvalue()
    for name in fake_spec().end_to_end:
        assert name in text
    assert "fake.layer_s" in text and "fake.idle_layer_s" not in text
    assert "median" in text and "q1" in text and " n" in text
    assert "fail_ratio 0 ratio" in text


def test_the_report_describes_itself():
    entries = Runner(fake_spec(), in_process(FakeWorkload), RecordingReporter()).run(["fake"], [0])
    report = build_report(fake_spec(), entries, seed=9, seconds=5.0, scale=1.0)
    assert report["seed"] == 9 and report["comparable"] is True
    assert {"python", "platform", "cpu_count", "oversubscribed"} <= set(report["host"])
    assert report["git_commit"]
    assert report["workloads"]["fake"]["params"] == {"widgets": 100}
    assert build_report(fake_spec(), entries, seed=9, seconds=0.0, scale=0.125)["comparable"] is False


def test_fewer_than_three_cpus_is_oversubscribed(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    assert host_stamp()["oversubscribed"] is True
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert host_stamp()["oversubscribed"] is False
