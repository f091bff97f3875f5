"""Smoke tests for the figures, tables and ablations (at the SMOKE scale)."""

import pytest

from repro.experiments import FIGURES, SMOKE, run_experiment
from repro.experiments.ablations import RULE_SETS


class TestFigure1:
    def test_rows_cover_the_grid_and_carry_timings(self):
        rows = run_experiment("figure1", SMOKE)
        assert len(rows) == 9 * SMOKE.sets_per_profile_sl
        for row in rows:
            assert row["n_rules"] >= 1
            assert row["t_total"] >= row["t_parse"]
            assert row["t_total"] == pytest.approx(row["t_parse"] + row["t_graph"] + row["t_comp"])
            assert {"predicate_profile", "tgd_profile", "finite"} <= set(row)


class TestLinearFigures:
    def test_figure2_shape_counts_grow_with_database_size(self):
        rows = run_experiment("figure2", SMOKE)
        assert rows
        by_profile = {}
        for row in rows:
            key = (row["predicate_profile"], row["tgd_profile"])
            by_profile.setdefault(key, []).append(row)
        for series in by_profile.values():
            series.sort(key=lambda row: row["n_tuples_per_relation"])
            shapes = [row["n_shapes"] for row in series]
            assert shapes[0] <= shapes[-1]

    def test_figure3_and_figure4_measure_find_shapes(self):
        for figure, method in (("figure3", "in-memory"), ("figure4", "in-database")):
            rows = run_experiment(figure, SMOKE)
            assert rows
            assert all(row["method"] == method for row in rows)
            assert all(row["t_shapes"] >= 0 for row in rows)

    def test_figure5_only_contains_the_largest_predicate_profile(self):
        rows = run_experiment("figure5", SMOKE)
        labels = {row["predicate_profile"] for row in rows}
        assert labels == {SMOKE.predicate_profiles()[2].label}
        assert all(row["t_total"] >= row["t_comp"] and row["t_total"] > 0 for row in rows)
        # t_total is the db-independent component: FindShapes is not in it.
        for row in rows:
            assert row["t_total"] == pytest.approx(row["t_parse"] + row["t_graph"] + row["t_comp"])

    def test_db_independent_inline_figure(self):
        rows = run_experiment("figure_db_independent_vs_size", SMOKE)
        assert len(rows) == len(list(SMOKE.database_sizes())) * 9 * SMOKE.sets_per_profile_l

    def test_figure_edges(self):
        rows = run_experiment("figure_edges", SMOKE)
        assert rows
        assert all(row["n_edges"] >= row["n_special_edges"] >= 0 for row in rows)

    def test_runner_registry_is_complete(self):
        assert set(FIGURES) == {
            "figure1",
            "figure2",
            "figure3",
            "figure4",
            "figure5",
            "figure6",
            "figure7",
            "figure_db_independent_vs_size",
            "figure_edges",
            "table1",
            "table2",
            "static_vs_dynamic",
            "materialization_vs_acyclicity",
        }


class TestTables:
    def test_table1_compares_measured_and_paper_stats(self):
        config = SMOKE.scaled(scenarios=("LUBM-1", "STB-128"), scenario_scale=0.01)
        rows = run_experiment("table1", config)
        assert len(rows) == 2
        lubm = next(row for row in rows if row["name"] == "LUBM-1")
        assert lubm["paper_n_rules"] == 137
        assert lubm["n_rules"] == 137
        ibench = next(row for row in rows if row["name"] == "STB-128")
        assert ibench["n_pred"] == ibench["paper_n_pred"] == 287

    def test_table2_breakdown(self):
        rows = run_experiment("table2", SMOKE.scaled(scenarios=("LUBM-1",), scenario_scale=1.0))
        row = rows[0]
        assert row["finite"] is True
        assert row["shapes_agree"] is True
        assert row["t_total_in_db"] >= row["t_shapes_in_db"]
        assert row["paper_t_shapes_indb_ms"] == 221
        # The other families, scaled down: both finders must agree everywhere.
        others = ("Deep-100", "LUBM-10", "STB-128", "ONT-256")
        for row in run_experiment("table2", SMOKE.scaled(scenarios=others, scenario_scale=0.02)):
            assert row["finite"] is True and row["shapes_agree"] is True, row["name"]


class TestAblations:
    def test_static_vs_dynamic(self):
        rows = run_experiment("static_vs_dynamic", SMOKE)
        assert [row["rule_set"] for row in rows] == list(range(RULE_SETS))
        for row in rows:
            assert row["ablation"] == "static_vs_dynamic"
            assert row["dynamic_size"] <= row["static_size"]
            assert row["size_ratio"] >= 1.0
            assert row["static_size"] <= row["static_size_bound"]

    def test_materialization_vs_acyclicity(self, materialization_rows):
        rows = materialization_rows
        assert [row["rule_set"] for row in rows] == list(range(RULE_SETS))
        for row in rows:
            assert row["ablation"] == "materialization_vs_acyclicity"
            assert isinstance(row["acyclicity_finite"], bool)
            if row["materialization_conclusive"] and row["materialization_finite"] is not None:
                assert row["materialization_finite"] == row["acyclicity_finite"]
