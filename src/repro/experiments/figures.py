"""Runners for every figure of the paper's evaluation (Sections 7, 8, Appendix A).

Each runner returns a list of plain-dict rows (one per measured point) so the
results can be printed (:mod:`repro.experiments.reporting`) or dumped to CSV.
Times are reported in seconds.

Figure map
----------
* :func:`figure1` — runtime of ``IsChaseFinite[SL]`` vs ``n-rules``
  (``t-total``, ``t-parse``, ``t-graph``, ``t-comp``).
* :func:`figure_db_independent_vs_size` — the inline Section 8 figure: the
  db-independent runtime does not depend on the database size.
* :func:`figure2` — number of shapes vs database size, per predicate profile.
* :func:`figure3` / :func:`figure4` — runtime of ``FindShapes`` (in-memory /
  in-database) vs database size, per predicate profile.
* :func:`figure5` / :func:`figure6` / :func:`figure7` — db-independent
  runtime of ``IsChaseFinite[L]`` vs ``n-rules`` for the predicate profiles
  [400,600], [5,200], [200,400].
* :func:`figure_edges` — average number of dependency-graph edges vs
  ``n-rules`` per predicate profile (appendix).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.parser import parse_rules
from ..graph.tarjan import find_special_sccs
from ..obs.clock import perf_counter_s
from ..simplification.dynamic import dynamic_simplification
from ..storage.shape_finder import InDatabaseShapeFinder, InMemoryShapeFinder
from ..termination.simple_linear import is_chase_finite_sl
from .config import DEFAULT, ExperimentConfig
from .workloads import (
    LinearRuleSet,
    build_dstar,
    dstar_views,
    linear_rule_sets,
    restrict_view_to_rules,
    simple_linear_workloads,
)

Row = Dict[str, object]


# --------------------------------------------------------------------------- #
# Section 7 — simple-linear TGDs


def figure1(config: ExperimentConfig = DEFAULT) -> List[Row]:
    """Figure 1: runtime of ``IsChaseFinite[SL]`` for the nine combined profiles.

    One row per generated rule set, with the rule count, the profile labels,
    and the ``t-parse`` / ``t-graph`` / ``t-comp`` / ``t-total`` breakdown.
    The input database is the induced database ``D_Σ`` (Remark 1).
    """
    rows: List[Row] = []
    for workload in simple_linear_workloads(config):
        report = is_chase_finite_sl(workload.database, workload.rules_text)
        timings = report.timings
        rows.append(
            {
                "figure": "figure1",
                "predicate_profile": workload.profile.predicates.label,
                "tgd_profile": workload.profile.tgds.label,
                "n_rules": report.statistics["n_rules"],
                "n_edges": report.statistics["n_edges"],
                "finite": report.finite,
                "t_parse": timings.t_parse,
                "t_graph": timings.t_graph,
                "t_comp": timings.t_comp,
                "t_total": timings.t_total,
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Section 8 — linear TGDs: shared measurement helper


def _measure_db_independent(rule_set: LinearRuleSet, shapes) -> Row:
    """Measure the db-independent component for one (rule set, shape set) pair."""
    start = perf_counter_s()
    tgds = parse_rules(rule_set.rules_text)
    t_parse = perf_counter_s() - start

    start = perf_counter_s()
    simplification = dynamic_simplification(shapes, tgds)
    graph = simplification.dependency_graph()
    t_graph = perf_counter_s() - start

    start = perf_counter_s()
    special = find_special_sccs(graph)
    t_comp = perf_counter_s() - start

    return {
        "predicate_profile": rule_set.profile.predicates.label,
        "tgd_profile": rule_set.profile.tgds.label,
        "n_rules": len(tgds),
        "n_shapes": len(shapes),
        "n_simplified_rules": simplification.rule_count,
        "n_edges": graph.edge_count(),
        "finite": not special,
        "t_parse": t_parse,
        "t_graph": t_graph,
        "t_comp": t_comp,
        "t_total": t_parse + t_graph + t_comp,
    }


def _linear_grid(config: ExperimentConfig):
    """Yield (rule set, view, restricted view) for the full linear grid."""
    store = build_dstar(config)
    views = dstar_views(config, store)
    rule_sets = list(linear_rule_sets(config))
    for rule_set in rule_sets:
        for view in views:
            yield rule_set, view, restrict_view_to_rules(view, rule_set.tgds)


def figure_db_independent_vs_size(config: ExperimentConfig = DEFAULT) -> List[Row]:
    """Section 8 inline figure: db-independent runtime vs database size.

    One row per (rule set, database view); the interesting aggregate is the
    average of ``t_graph + t_comp`` per ``n_tuples_per_relation``, which the
    paper shows to be flat.
    """
    rows: List[Row] = []
    for rule_set, view, restricted in _linear_grid(config):
        shapes = InMemoryShapeFinder(restricted).find_shapes()
        row = _measure_db_independent(rule_set, shapes)
        row.update(
            {
                "figure": "figure_db_independent_vs_size",
                "n_tuples_per_relation": view.tuples_per_relation,
                "n_tuples_total": restricted.total_rows(),
            }
        )
        rows.append(row)
    return rows


def figure2(config: ExperimentConfig = DEFAULT) -> List[Row]:
    """Figure 2: number of shapes vs database size, per predicate profile."""
    rows: List[Row] = []
    for rule_set, view, restricted in _linear_grid(config):
        shapes = InMemoryShapeFinder(restricted).find_shapes()
        rows.append(
            {
                "figure": "figure2",
                "predicate_profile": rule_set.profile.predicates.label,
                "tgd_profile": rule_set.profile.tgds.label,
                "n_tuples_per_relation": view.tuples_per_relation,
                "n_tuples_total": restricted.total_rows(),
                "n_predicates": len(restricted.relation_names()),
                "n_shapes": len(shapes),
            }
        )
    return rows


def _figure_find_shapes(config: ExperimentConfig, method: str, figure: str) -> List[Row]:
    rows: List[Row] = []
    for rule_set, view, restricted in _linear_grid(config):
        start = perf_counter_s()
        if method == "in-memory":
            finder = InMemoryShapeFinder(restricted)
        else:
            finder = InDatabaseShapeFinder(restricted)
        shapes = finder.find_shapes()
        elapsed = perf_counter_s() - start
        rows.append(
            {
                "figure": figure,
                "method": method,
                "predicate_profile": rule_set.profile.predicates.label,
                "n_tuples_per_relation": view.tuples_per_relation,
                "n_tuples_total": restricted.total_rows(),
                "n_shapes": len(shapes),
                "t_shapes": elapsed,
                "rows_scanned": finder.stats.rows_scanned,
                "queries_issued": finder.stats.queries_issued,
            }
        )
    return rows


def figure3(config: ExperimentConfig = DEFAULT) -> List[Row]:
    """Figure 3: runtime of the in-memory ``FindShapes`` vs database size."""
    return _figure_find_shapes(config, "in-memory", "figure3")


def figure4(config: ExperimentConfig = DEFAULT) -> List[Row]:
    """Figure 4: runtime of the in-database ``FindShapes`` vs database size."""
    return _figure_find_shapes(config, "in-database", "figure4")


def _figure_db_independent_for_profile(
    config: ExperimentConfig, profile_label: str, figure: str
) -> List[Row]:
    """Shared runner for Figures 5-7: db-independent runtime vs n-rules."""
    rows: List[Row] = []
    for rule_set, view, restricted in _linear_grid(config):
        if rule_set.profile.predicates.label != profile_label:
            continue
        shapes = InMemoryShapeFinder(restricted).find_shapes()
        row = _measure_db_independent(rule_set, shapes)
        row.update(
            {
                "figure": figure,
                "n_tuples_per_relation": view.tuples_per_relation,
            }
        )
        rows.append(row)
    return rows


def figure5(config: ExperimentConfig = DEFAULT) -> List[Row]:
    """Figure 5: db-independent runtime of ``IsChaseFinite[L]``, profile [400,600]."""
    label = config.predicate_profiles()[2].label
    return _figure_db_independent_for_profile(config, label, "figure5")


def figure6(config: ExperimentConfig = DEFAULT) -> List[Row]:
    """Figure 6 (appendix): same as Figure 5 for the predicate profile [5,200]."""
    label = config.predicate_profiles()[0].label
    return _figure_db_independent_for_profile(config, label, "figure6")


def figure7(config: ExperimentConfig = DEFAULT) -> List[Row]:
    """Figure 7 (appendix): same as Figure 5 for the predicate profile [200,400]."""
    label = config.predicate_profiles()[1].label
    return _figure_db_independent_for_profile(config, label, "figure7")


def figure_edges(config: ExperimentConfig = DEFAULT) -> List[Row]:
    """Appendix edge-count plot: dependency-graph edges vs ``n-rules`` per profile."""
    rows: List[Row] = []
    store = build_dstar(config)
    views = dstar_views(config, store)
    largest = views[-1]
    for rule_set in linear_rule_sets(config):
        restricted = restrict_view_to_rules(largest, rule_set.tgds)
        shapes = InMemoryShapeFinder(restricted).find_shapes()
        simplification = dynamic_simplification(shapes, rule_set.tgds)
        graph = simplification.dependency_graph()
        rows.append(
            {
                "figure": "figure_edges",
                "predicate_profile": rule_set.profile.predicates.label,
                "tgd_profile": rule_set.profile.tgds.label,
                "n_rules": rule_set.n_rules,
                "n_edges": graph.edge_count(),
                "n_special_edges": graph.special_edge_count(),
            }
        )
    return rows


#: Registry used by the CLI and the benchmark harness.
FIGURE_RUNNERS = {
    "figure1": figure1,
    "figure_db_independent_vs_size": figure_db_independent_vs_size,
    "figure2": figure2,
    "figure3": figure3,
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure_edges": figure_edges,
}
