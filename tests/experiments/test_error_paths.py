"""Error-path coverage for the experiments and the reporting layer.

The happy paths live in ``test_figures_and_tables.py``; this file pins what
happens on empty result sets, unknown scenario names, and rows with missing
or non-numeric columns — the degradations a long experiment run must survive
without a traceback.
"""

import pytest

from repro.cli import main
from repro.exceptions import ExperimentConfigError
from repro.experiments.reporting import (
    format_table,
    group_mean,
    summarize_figure,
    write_csv,
)
from repro.experiments import SMOKE, run_experiment


class TestScenarioTables:
    def test_unknown_scenario_name_is_a_config_error(self):
        with pytest.raises(ExperimentConfigError) as excinfo:
            run_experiment("table1", SMOKE.scaled(scenarios=("NOPE",)))
        # The message must name the valid choices, not just reject.
        assert "NOPE" in str(excinfo.value)
        assert "LUBM-1" in str(excinfo.value)
        with pytest.raises(ExperimentConfigError):
            run_experiment("table2", SMOKE.scaled(scenarios=("Deep-100", "NOPE")))

    def test_unknown_experiment_is_a_config_error(self):
        with pytest.raises(ExperimentConfigError, match="figure99"):
            run_experiment("figure99", SMOKE)

    def test_empty_scenario_selection_yields_empty_rows(self):
        rows = run_experiment("table1", SMOKE.scaled(scenarios=()))
        assert rows == []
        assert summarize_figure(rows) == "(no rows)"
        assert format_table(rows, title="table1") == "table1: (no rows)"

    def test_cli_run_reports_unknown_scenarios_readably(self, capsys):
        assert main(["run", "table1", "--scenarios", "NOPE"]) == 2
        err = capsys.readouterr().err
        assert "run failed" in err and "NOPE" in err

    def test_cli_run_accepts_empty_intersection(self, capsys, tmp_path):
        # A valid scenario under a tiny scale still renders; regression for
        # the CSV writer on single-row output.
        csv_path = tmp_path / "t.csv"
        assert main(
            ["run", "table1", "--scenarios", "LUBM-1", "--csv", str(csv_path)]
        ) == 0
        assert csv_path.read_text().count("\n") == 2  # header + one row


class TestReportingDegradations:
    def test_empty_rows_everywhere(self):
        assert summarize_figure([]) == "(no rows)"
        assert format_table([], title="anything") == "anything: (no rows)"
        assert format_table([]) == "results: (no rows)"
        assert group_mean([], ("kind",), ("value",)) == []

    def test_group_mean_tolerates_missing_and_non_numeric_values(self):
        rows = [
            {"kind": "a", "value": 1},
            {"kind": "a", "value": "broken"},
            {"kind": "a"},
            {"kind": "b", "value": None},
        ]
        aggregated = group_mean(rows, ("kind",), ("value",))
        assert aggregated[0] == {"kind": "a", "n": 3, "mean_value": 1}
        assert aggregated[1] == {"kind": "b", "n": 1, "mean_value": None}

    def test_format_table_fills_missing_cells(self):
        rows = [{"a": 1, "b": 2}, {"a": 3}]
        rendered = format_table(rows)
        lines = rendered.splitlines()
        assert len(lines) == 4
        assert lines[-1].startswith("3")

    def test_summarize_figure_without_group_columns_falls_back_to_table(self):
        rows = [{"figure": "adhoc", "value": 1.5}]
        rendered = summarize_figure(rows)
        assert "adhoc" in rendered and "1.5" in rendered

    def test_write_csv_empty_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_text() == "\r\n" or path.read_text() == "\n"

    def test_write_csv_union_of_columns(self, tmp_path):
        path = tmp_path / "union.csv"
        write_csv([{"a": 1}, {"b": 2}], path)
        header = path.read_text().splitlines()[0]
        assert header == "a,b"
