"""Tests for experiment configuration and workload construction."""

import pytest

from repro.exceptions import ExperimentConfigError
from repro.experiments.config import (
    DEFAULT,
    DEFAULT_SCENARIOS,
    MEDIUM,
    PAPER,
    SMOKE,
    ExperimentConfig,
    preset,
)
from repro.experiments.workloads import (
    build_dstar,
    build_simple_linear_workload,
    dstar_views,
    global_schema,
    linear_rule_sets,
    restrict_view_to_rules,
)


class TestExperimentConfig:
    def test_presets(self):
        assert preset("smoke") is SMOKE
        assert preset("default") is DEFAULT
        assert preset("paper") is PAPER
        with pytest.raises(ExperimentConfigError):
            preset("huge")

    def test_medium_preset_sits_between_smoke_and_default(self):
        assert SMOKE.tgd_scale < MEDIUM.tgd_scale < DEFAULT.tgd_scale
        assert preset("medium") is MEDIUM

    def test_paper_preset_matches_nominal_sizes(self):
        assert PAPER.tgd_profiles()[-1].high == 1_000_000
        assert PAPER.database_sizes()[-1] == 500_000
        assert PAPER.predicate_profiles()[-1].high == 600

    def test_scaled_profiles(self):
        config = ExperimentConfig(tgd_scale=0.001, predicate_scale=0.1)
        assert config.tgd_profiles()[-1].high == 1000
        assert config.predicate_profiles()[-1].high == 60
        assert len(config.combined_profiles()) == 9

    def test_validation(self):
        with pytest.raises(ExperimentConfigError):
            ExperimentConfig(tgd_scale=0)
        with pytest.raises(ExperimentConfigError):
            ExperimentConfig(sets_per_profile_sl=0)

    def test_scenario_fields(self):
        # Every preset runs the same laptop-sized scenarios at each family's
        # default scale; names are checked at construction, and a list is
        # kept as a tuple so the config stays hashable.
        assert {config.scenarios for config in (SMOKE, MEDIUM, DEFAULT, PAPER)} == {
            DEFAULT_SCENARIOS
        }
        assert DEFAULT.scenario_scale is None
        config = SMOKE.scaled(scenarios=["LUBM-1"], scenario_scale=0.5)
        assert config.scenarios == ("LUBM-1",) and hash(config)
        with pytest.raises(ExperimentConfigError, match="unknown scenario 'NOPE'"):
            SMOKE.scaled(scenarios=("LUBM-1", "NOPE"))
        for scale in (0, -1.0):
            with pytest.raises(ExperimentConfigError, match="scenario_scale"):
                SMOKE.scaled(scenario_scale=scale)

    def test_rng_is_deterministic(self):
        config = ExperimentConfig()
        assert config.rng("a", 1).random() == config.rng("a", 1).random()
        assert config.rng("a", 1).random() != config.rng("b", 1).random()

    def test_scaled_copy(self):
        config = SMOKE.scaled(seed=1)
        assert config.seed == 1
        assert config.tgd_scale == SMOKE.tgd_scale


def simple_linear_grid(config):
    return [
        build_simple_linear_workload(config, profile, sample)
        for profile in range(len(config.combined_profiles()))
        for sample in range(config.sets_per_profile_sl)
    ]


class TestWorkloads:
    def test_simple_linear_workloads_cover_the_grid(self):
        workloads = simple_linear_grid(SMOKE)
        assert len(workloads) == 9 * SMOKE.sets_per_profile_sl
        for workload in workloads:
            assert workload.tgds.is_simple_linear()
            assert workload.n_rules >= 1
            assert len(workload.database) == len(workload.tgds.schema())
            assert workload.rules_text

    def test_linear_rule_sets_cover_the_grid(self):
        rule_sets = list(linear_rule_sets(SMOKE))
        assert len(rule_sets) == 9 * SMOKE.sets_per_profile_l
        assert all(rule_set.tgds.is_linear() for rule_set in rule_sets)

    def test_dstar_and_views(self):
        store = build_dstar(SMOKE)
        assert len(store.relation_names()) == len(global_schema(SMOKE))
        views = dstar_views(SMOKE, store)
        assert len(views) == len(SMOKE.database_sizes())
        sizes = [view.total_rows() for view in views]
        assert sizes == sorted(sizes)

    def test_restrict_view_to_rules(self):
        store = build_dstar(SMOKE)
        views = dstar_views(SMOKE, store)
        rule_set = next(iter(linear_rule_sets(SMOKE)))
        restricted = restrict_view_to_rules(views[0], rule_set.tgds)
        rule_predicates = {p.name for p in rule_set.tgds.schema()}
        assert set(restricted.relation_names()) <= rule_predicates

    def test_workloads_are_reproducible(self):
        first = [w.rules_text for w in simple_linear_grid(SMOKE)]
        second = [w.rules_text for w in simple_linear_grid(SMOKE)]
        assert first == second
