"""Unit tests for timing reports."""

import pytest

from repro.termination.report import (
    MaterializationReport,
    TerminationReport,
    TimingBreakdown,
)


class TestTimingBreakdown:
    def test_totals(self):
        timings = TimingBreakdown(t_parse=1.0, t_shapes=4.0, t_graph=2.0, t_comp=0.5)
        assert timings.t_total == 7.5
        assert timings.db_independent == 3.5
        assert timings.db_dependent == 4.0
        as_dict = timings.as_dict()
        assert as_dict["t_total"] == 7.5
        assert as_dict["db_dependent"] == 4.0

    def test_measure_accumulates_into_the_named_field(self, monkeypatch):
        readings = iter([1.0, 1.5, 3.0, 3.25])
        monkeypatch.setattr("repro.termination.report.perf_counter_s", lambda: next(readings))
        timings = TimingBreakdown()
        with timings.measure("t_graph"):
            pass
        with timings.measure("t_graph"):
            pass
        assert timings.t_graph == 0.75
        assert timings.t_parse == timings.t_shapes == timings.t_comp == 0.0

    def test_measure_records_on_exception(self, monkeypatch):
        readings = iter([2.0, 2.5])
        monkeypatch.setattr("repro.termination.report.perf_counter_s", lambda: next(readings))
        timings = TimingBreakdown()
        with pytest.raises(RuntimeError, match="boom"):
            with timings.measure("t_comp"):
                raise RuntimeError("boom")
        assert timings.t_comp == 0.5


class TestReports:
    def test_termination_report_truthiness(self):
        assert bool(TerminationReport(finite=True, algorithm="x")) is True
        assert bool(TerminationReport(finite=False, algorithm="x")) is False

    def test_materialization_report_truthiness(self):
        inconclusive = MaterializationReport(
            finite=None, conclusive=False, atoms_materialized=1, bound=10,
            bound_saturated=False, elapsed_seconds=0.0,
        )
        assert bool(inconclusive) is False
