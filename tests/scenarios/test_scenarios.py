"""Tests for the literature scenarios (Deep, LUBM, iBench) and the Table 1 registry."""

import pytest

from repro.exceptions import ExperimentConfigError
from repro.graph.dependency_graph import build_dependency_graph
from repro.graph.tarjan import find_special_sccs
from repro.scenarios import (
    PAPER_TABLE_1,
    PAPER_TABLE_2_MS,
    build_deep,
    build_ibench,
    build_lubm,
    build_scenario,
    lubm_rules,
    paper_stats,
    scenario_names,
)
from repro.termination.linear import is_chase_finite_l
from repro.termination.simple_linear import is_chase_finite_sl


class TestRegistry:
    def test_table1_covers_all_scenarios(self):
        assert len(scenario_names()) == 9
        assert paper_stats("LUBM-1").n_rules == 137
        assert paper_stats("Deep-300").n_rules == 4841
        assert paper_stats("ONT-256").arity_label == "[1,11]"

    def test_table2_covers_all_scenarios(self):
        assert set(PAPER_TABLE_2_MS) == set(PAPER_TABLE_1)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ExperimentConfigError):
            build_scenario("Deep-999")


class TestDeep:
    def test_structure_matches_table1_shape(self):
        scenario = build_deep("Deep-100", scale=0.2, seed=1)
        stats = scenario.measured_stats()
        assert stats.arity_min == stats.arity_max == 4
        assert stats.n_atoms == stats.n_shapes  # one distinct shape per source atom
        assert scenario.tgds.is_simple_linear()

    def test_rule_counts_scale_with_member(self):
        small = build_deep("Deep-100", scale=0.1)
        large = build_deep("Deep-300", scale=0.1)
        assert len(large.tgds) > len(small.tgds)

    def test_weakly_acyclic_and_finite(self):
        scenario = build_deep("Deep-100", scale=0.1)
        assert not find_special_sccs(build_dependency_graph(scenario.tgds))
        assert is_chase_finite_sl(scenario.store.to_database(), scenario.tgds).finite

    def test_invalid_parameters(self):
        with pytest.raises(ExperimentConfigError):
            build_deep("Deep-42")
        with pytest.raises(ExperimentConfigError):
            build_deep("Deep-100", scale=2.0)


class TestLUBM:
    def test_rules_match_table1(self):
        rules = lubm_rules()
        assert len(rules) == 137
        assert rules.is_simple_linear()
        schema = rules.schema()
        assert all(p.arity in (1, 2) for p in schema)

    def test_schema_size(self):
        scenario = build_lubm("LUBM-1")
        assert scenario.measured_stats().n_pred == 104

    def test_data_scales_with_member(self):
        small = build_lubm("LUBM-1")
        large = build_lubm("LUBM-10")
        assert large.store.total_rows() > small.store.total_rows()

    def test_termination_is_finite(self):
        scenario = build_lubm("LUBM-1")
        report = is_chase_finite_l(scenario.store.to_database(), scenario.tgds)
        assert report.finite

    def test_invalid_member(self):
        with pytest.raises(ExperimentConfigError):
            build_lubm("LUBM-5")


class TestIBench:
    @pytest.mark.parametrize("name", ["STB-128", "ONT-256"])
    def test_structure_matches_table1(self, name):
        scenario = build_ibench(name, tuples_per_source=5)
        stats = scenario.measured_stats()
        paper = PAPER_TABLE_1[name]
        assert stats.n_pred == paper.n_pred
        assert stats.n_rules == paper.n_rules
        assert stats.n_shapes == paper.n_shapes
        assert stats.arity_max <= paper.arity_max
        assert scenario.tgds.is_simple_linear()

    def test_weakly_acyclic_and_finite(self):
        scenario = build_ibench("STB-128", tuples_per_source=3)
        assert not find_special_sccs(build_dependency_graph(scenario.tgds))
        assert is_chase_finite_l(scenario.store.to_database(), scenario.tgds).finite

    def test_invalid_member(self):
        with pytest.raises(ExperimentConfigError):
            build_ibench("STB-512")


class TestBuildScenario:
    def test_dispatch(self):
        assert build_scenario("Deep-100", scale=0.05).family == "Deep"
        assert build_scenario("LUBM-1").family == "LUBM"
        assert build_scenario("STB-128", scale=0.01).family == "iBench"

    def test_paper_stats_attached(self):
        scenario = build_scenario("LUBM-1")
        assert scenario.paper_stats.n_atoms == 99_547
