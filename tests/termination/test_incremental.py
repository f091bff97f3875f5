"""Differential tests: incremental prefix-view ``IsChaseFinite[L]`` vs from-scratch.

The incremental pipeline (DeltaShapeFinder + resumed dynamic simplification,
whose fixpoint carries its dependency graph forward) must produce *identical*
verdicts, shape sets, simplified rule sets, and dependency graphs to the
from-scratch pipeline on every prefix view — these tests prove it on iBench/LUBM/Deep-derived
scenarios and on the synthetic ``D*`` grid.
"""

import pytest

from repro.experiments.config import SMOKE
from repro.experiments.workloads import (
    build_dstar,
    dstar_views,
    linear_rule_sets,
    restrict_view_to_rules,
)
from repro.graph.dependency_graph import build_dependency_graph
from repro.scenarios import build_scenario
from repro.simplification.dynamic import (
    dynamic_simplification,
    resume_dynamic_simplification,
)
from repro.storage.shape_finder import DeltaShapeFinder, InMemoryShapeFinder
from repro.storage.views import PrefixView
from repro.termination.incremental import IncrementalLinearChecker
from repro.termination.linear import is_chase_finite_l


def _graph_signature(graph):
    """A comparable snapshot of a dependency graph: nodes and collapsed edges."""
    return (graph.nodes(), tuple(graph.edges()))


def _scratch_state(tgds, view):
    shapes = InMemoryShapeFinder(view).find_shapes()
    simplification = dynamic_simplification(shapes, tgds)
    graph = build_dependency_graph(simplification.tgds)
    return shapes, simplification, graph


def _view_ladder(store, count=4):
    """Strictly growing per-relation prefix sizes covering the store."""
    largest = max((len(relation) for relation in store.relations()), default=1)
    sizes = sorted({max(1, round(largest * fraction)) for fraction in (0.1, 0.4, 0.7, 1.0)})
    return [PrefixView(store, size) for size in sizes]


class TestIncrementalMatchesScratchOnScenarios:
    @pytest.mark.parametrize("name", ["LUBM-1", "STB-128", "ONT-256", "Deep-100"])
    def test_scenario_prefix_ladder(self, name):
        scenario = build_scenario(name, scale=0.02)
        store = scenario.store
        tgds = scenario.tgds
        finder = DeltaShapeFinder(store)
        checker = IncrementalLinearChecker(tgds, finder)
        for view in _view_ladder(store):
            report = checker.check(view)
            shapes, simplification, graph = _scratch_state(tgds, view)
            scratch_report = is_chase_finite_l(shapes, tgds)
            assert report.finite == scratch_report.finite
            assert finder.shapes_for(view) == shapes
            assert checker.simplification.tgds == simplification.tgds
            assert checker.simplification.derived_shapes == simplification.derived_shapes
            assert _graph_signature(checker.graph) == _graph_signature(graph)


class TestIncrementalMatchesScratchOnDstar:
    def test_full_linear_grid(self):
        store = build_dstar(SMOKE)
        views = dstar_views(SMOKE, store)
        finder = DeltaShapeFinder(store)
        for rule_set in linear_rule_sets(SMOKE):
            checker = IncrementalLinearChecker(rule_set.tgds, finder)
            for view in views:
                restricted = restrict_view_to_rules(view, rule_set.tgds)
                report = checker.check(restricted)
                shapes, simplification, graph = _scratch_state(rule_set.tgds, restricted)
                assert report.finite == is_chase_finite_l(shapes, rule_set.tgds).finite
                assert checker.simplification.tgds == simplification.tgds
                assert _graph_signature(checker.graph) == _graph_signature(graph)
                assert report.statistics["n_initial_shapes"] == len(shapes)
                assert report.statistics["n_edges"] == graph.edge_count()


class TestAscendingOrderGuard:
    def test_shrinking_view_is_rejected(self):
        scenario = build_scenario("LUBM-1", scale=0.02)
        finder = DeltaShapeFinder(scenario.store)
        checker = IncrementalLinearChecker(scenario.tgds, finder)
        small, large = _view_ladder(scenario.store)[0], _view_ladder(scenario.store)[-1]
        checker.check(large)
        with pytest.raises(ValueError, match="ascending"):
            checker.check(small)
        # The shared finder still answers the smaller view correctly.
        assert finder.shapes_for(small) == InMemoryShapeFinder(small).find_shapes()


class TestResumeDynamicSimplification:
    def test_resume_equals_scratch_on_growing_shape_sets(self):
        scenario = build_scenario("LUBM-1", scale=0.02)
        store = scenario.store
        tgds = scenario.tgds
        views = _view_ladder(store)
        previous = None
        for view in views:
            shapes = InMemoryShapeFinder(view).find_shapes()
            scratch = dynamic_simplification(shapes, tgds)
            if previous is None:
                previous = dynamic_simplification(shapes, tgds)
            else:
                previous = resume_dynamic_simplification(previous, shapes, tgds)
            assert previous.tgds == scratch.tgds
            assert previous.derived_shapes == scratch.derived_shapes
            assert previous.initial_shapes == scratch.initial_shapes

    def test_resume_preserves_rule_insertion_order_prefix(self):
        scenario = build_scenario("STB-128", scale=0.02)
        tgds = scenario.tgds
        store = scenario.store
        small, large = _view_ladder(store)[0], _view_ladder(store)[-1]
        first = dynamic_simplification(InMemoryShapeFinder(small).find_shapes(), tgds)
        resumed = resume_dynamic_simplification(
            first, InMemoryShapeFinder(large).find_shapes(), tgds
        )
        assert resumed.tgds.tgds[: len(first.tgds)] == first.tgds.tgds
