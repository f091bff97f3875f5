"""Unit tests for IsChaseFinite[L] (Algorithm 3)."""

import time

import pytest

from repro.core.parser import parse_database, parse_rules
from repro.exceptions import NotLinearError
from repro.scenarios import build_scenario
from repro.simplification.shapes import shapes_of_database
from repro.storage.database import RelationalDatabase
from repro.storage.shape_finder import (
    DeltaShapeFinder,
    InDatabaseShapeFinder,
    InMemoryShapeFinder,
)
from repro.storage.views import PrefixView
from repro.termination.incremental import IncrementalLinearChecker
from repro.termination.linear import is_chase_finite_l
from repro.termination.simple_linear import is_chase_finite_sl
from tests.termination.test_incremental import _view_ladder


class TestIsChaseFiniteL:
    def test_example_3_4_is_finite(self, example_3_4):
        database, rules = example_3_4
        report = is_chase_finite_l(database, rules)
        assert report.finite
        assert report.algorithm == "IsChaseFinite[L]"

    def test_matching_shape_makes_it_infinite(self):
        rules = parse_rules("R(x,x) -> R(x,z), R(z,z)")
        assert not is_chase_finite_l(parse_database("R(a,a)."), rules).finite
        assert is_chase_finite_l(parse_database("R(a,b)."), rules).finite

    def test_simple_linear_inputs_agree_with_sl_checker(self):
        cases = [
            ("R(x,y) -> R(y,z)", "R(a,b).", False),
            ("R(x,y) -> S(y,z)", "R(a,b).", True),
            ("S(x,y) -> S(y,z)\nR(x,y) -> T(y,x)", "R(a,b).", True),
        ]
        for rules_text, facts_text, expected in cases:
            rules = parse_rules(rules_text)
            database = parse_database(facts_text)
            assert is_chase_finite_l(database, rules).finite is expected
            assert is_chase_finite_sl(database, rules).finite is expected

    def test_empty_database(self):
        assert is_chase_finite_l(parse_database(""), parse_rules("R(x,x) -> R(x,z)")).finite

    def test_rejects_non_linear(self):
        with pytest.raises(NotLinearError):
            is_chase_finite_l(parse_database("R(a,b)."), parse_rules("R(x,y), S(y,z) -> T(x,z)"))

    def test_accepts_precomputed_shapes(self):
        rules = parse_rules("R(x,x) -> R(x,z), R(z,z)")
        database = parse_database("R(a,a).")
        report = is_chase_finite_l(shapes_of_database(database), rules)
        assert not report.finite

    def test_accepts_shape_finders(self):
        rules = parse_rules("R(x,x) -> R(x,z), R(z,z)")
        store = RelationalDatabase.from_database(parse_database("R(a,a).\nR(a,b)."))
        for finder in (InMemoryShapeFinder(store), InDatabaseShapeFinder(store)):
            report = is_chase_finite_l(finder, rules)
            assert not report.finite
            assert report.timings.t_shapes > 0

    def test_accepts_rule_text(self):
        report = is_chase_finite_l(parse_database("R(a,a)."), "R(x,x) -> R(z,x)")
        assert report.finite
        assert report.timings.t_parse > 0

    def test_statistics_track_dynamic_simplification(self):
        rules = parse_rules("R(x,y) -> S(y,z)\nS(x,y) -> T(x,x)")
        report = is_chase_finite_l(parse_database("R(a,b)."), rules)
        stats = report.statistics
        assert stats["n_rules"] == 2
        assert stats["n_simplified_rules"] == 2
        assert stats["n_initial_shapes"] == 1
        assert stats["n_derived_shapes"] == 3

    def test_empty_frontier_rules_are_handled(self):
        rules = parse_rules("R(x) -> S(z)\nS(y) -> T(y,w)\nT(u,v) -> S(v)")
        assert not is_chase_finite_l(parse_database("R(a)."), rules).finite
        finite_rules = parse_rules("R(x) -> S(z)\nS(y) -> T(y,w)")
        assert is_chase_finite_l(parse_database("R(a)."), finite_rules).finite

    def test_non_simple_cycle_detected_only_with_matching_shapes(self):
        # The cycle requires an atom whose two columns are equal to get started.
        rules = parse_rules("P(x,y) -> Q(x,y)\nQ(x,x) -> P(x,z)\nP(x,y) -> P(y,y)")
        assert not is_chase_finite_l(parse_database("P(a,b)."), rules).finite
        rules_no_collapse = parse_rules("P(x,y) -> Q(x,y)\nQ(x,x) -> P(x,z)")
        assert is_chase_finite_l(parse_database("P(a,b)."), rules_no_collapse).finite


class TestResume:
    """``resume=`` continues Algorithm 2 from a previous report's fixpoint."""

    @staticmethod
    def _without_iterations(statistics):
        return {key: value for key, value in statistics.items() if key != "n_iterations"}

    @pytest.mark.parametrize("name", ["LUBM-1", "STB-128", "ONT-256", "Deep-100"])
    def test_resumed_chain_matches_scratch_on_prefix_ladder(self, name):
        scenario = build_scenario(name, scale=0.02)
        previous = None
        for view in _view_ladder(scenario.store):
            resumed = is_chase_finite_l(
                InMemoryShapeFinder(view),
                scenario.tgds,
                resume=None if previous is None else previous.simplification,
            )
            scratch = is_chase_finite_l(InMemoryShapeFinder(view), scenario.tgds)
            assert resumed.finite == scratch.finite
            assert self._without_iterations(resumed.statistics) == self._without_iterations(
                scratch.statistics
            )
            assert resumed.simplification.initial_shapes == InMemoryShapeFinder(view).find_shapes()
            previous = resumed

    def test_resume_leaves_the_previous_state_untouched(self):
        rules = parse_rules("R(x,y) -> S(y,x)\nS(x,x) -> R(x,z)")
        small = is_chase_finite_l(parse_database("R(a,b)."), rules)
        before = (set(small.simplification.initial_shapes), small.simplification.rule_count)
        large = is_chase_finite_l(
            parse_database("R(a,b).\nR(c,c)."), rules, resume=small.simplification
        )
        assert (set(small.simplification.initial_shapes), small.simplification.rule_count) == before
        assert large.statistics["n_initial_shapes"] > small.statistics["n_initial_shapes"]

    def test_simplification_takes_no_part_in_equality_or_repr(self):
        rules = parse_rules("R(x,y) -> R(y,z)")
        first = is_chase_finite_l(parse_database("R(a,b)."), rules)
        second = is_chase_finite_l(parse_database("R(a,b)."), rules)
        assert first.simplification is not second.simplification
        first.timings = second.timings
        assert first == second
        assert "simplification" not in repr(first)

    def test_incremental_checker_times_the_delta_scan_as_t_shapes(self, monkeypatch):
        database = RelationalDatabase.from_database(parse_database("R(a,b).\nR(c,c)."))
        finder = DeltaShapeFinder(database)
        scan = finder.shapes_for

        def slow_scan(view=None):
            time.sleep(0.05)
            return scan(view)

        monkeypatch.setattr(finder, "shapes_for", slow_scan)
        checker = IncrementalLinearChecker("R(x,y) -> R(y,z)", finder)
        report = checker.check(PrefixView(database, 1))
        assert report.timings.t_shapes >= 0.05
        assert report.timings.t_graph < 0.05
