"""Runners for Tables 1 and 2 (Section 9 — validation on literature scenarios).

Table 1 reports the statistics of the Deep, LUBM, and iBench scenarios;
Table 2 reports the runtime breakdown of ``IsChaseFinite[L]`` on them, with
the ``FindShapes`` step measured both with the in-database and the in-memory
implementation.

The scenarios are synthetic analogues built at a configurable scale (see
:mod:`repro.scenarios` and DESIGN.md); every row therefore carries both the
paper's reported value and the value measured on the rebuilt scenario.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..core.parser import parse_rules
from ..core.serializer import serialize_rules
from ..graph.tarjan import find_special_sccs
from ..obs.clock import perf_counter_s
from ..scenarios import PAPER_TABLE_2_MS, Scenario, build_scenario, scenario_names
from ..simplification.dynamic import dynamic_simplification
from ..storage.shape_finder import InDatabaseShapeFinder, InMemoryShapeFinder

Row = Dict[str, object]

#: Scenario subset used by default: every Table 1 scenario that stays small.
DEFAULT_SCENARIOS = (
    "Deep-100",
    "Deep-200",
    "Deep-300",
    "LUBM-1",
    "LUBM-10",
    "LUBM-100",
    "STB-128",
    "ONT-256",
)


def _build_scenarios(names: Optional[Iterable[str]], scale: Optional[float]) -> List[Scenario]:
    names = tuple(names) if names is not None else DEFAULT_SCENARIOS
    return [build_scenario(name, scale=scale) for name in names]


def table1(names: Optional[Iterable[str]] = None, scale: Optional[float] = None) -> List[Row]:
    """Table 1: per-scenario statistics (paper value vs rebuilt value)."""
    rows: List[Row] = []
    for scenario in _build_scenarios(names, scale):
        measured = scenario.measured_stats()
        paper = scenario.paper_stats
        rows.append(
            {
                "table": "table1",
                "family": scenario.family,
                "name": scenario.name,
                "n_pred": measured.n_pred,
                "arity": measured.arity_label,
                "n_atoms": measured.n_atoms,
                "n_shapes": measured.n_shapes,
                "n_rules": measured.n_rules,
                "paper_n_pred": paper.n_pred,
                "paper_arity": paper.arity_label,
                "paper_n_atoms": paper.n_atoms,
                "paper_n_shapes": paper.n_shapes,
                "paper_n_rules": paper.n_rules,
            }
        )
    return rows


def _run_l_breakdown(scenario: Scenario) -> Row:
    """Measure t-parse / t-graph / t-comp / t-shapes (both methods) for a scenario."""
    rules_text = serialize_rules(scenario.tgds)

    start = perf_counter_s()
    tgds = parse_rules(rules_text)
    t_parse = perf_counter_s() - start

    timings: Dict[str, float] = {}
    shapes_by_method = {}
    for method, finder_class in (
        ("in_db", InDatabaseShapeFinder),
        ("in_memory", InMemoryShapeFinder),
    ):
        start = perf_counter_s()
        shapes_by_method[method] = finder_class(scenario.store).find_shapes()
        timings[f"t_shapes_{method}"] = perf_counter_s() - start

    shapes = shapes_by_method["in_memory"]
    start = perf_counter_s()
    simplification = dynamic_simplification(shapes, tgds)
    graph = simplification.dependency_graph()
    t_graph = perf_counter_s() - start

    start = perf_counter_s()
    special = find_special_sccs(graph)
    t_comp = perf_counter_s() - start

    return {
        "t_parse": t_parse,
        "t_graph": t_graph,
        "t_comp": t_comp,
        "t_shapes_in_db": timings["t_shapes_in_db"],
        "t_shapes_in_memory": timings["t_shapes_in_memory"],
        "t_total_in_db": t_parse + t_graph + t_comp + timings["t_shapes_in_db"],
        "t_total_in_memory": t_parse + t_graph + t_comp + timings["t_shapes_in_memory"],
        "finite": not special,
        "n_rules": len(tgds),
        "n_shapes": len(shapes),
        "n_simplified_rules": simplification.rule_count,
        "shapes_agree": shapes_by_method["in_db"] == shapes_by_method["in_memory"],
    }


def table2(names: Optional[Iterable[str]] = None, scale: Optional[float] = None) -> List[Row]:
    """Table 2: runtime of ``IsChaseFinite[L]`` per scenario (seconds).

    Each row also carries the paper's reported milliseconds so the two can
    be printed side by side; absolute values are not expected to match (the
    substrate differs), only the relative structure — parsing and graph work
    negligible, ``FindShapes`` dominant, in-database faster than in-memory
    for the LUBM/iBench style scenarios and slower for Deep.
    """
    rows: List[Row] = []
    for scenario in _build_scenarios(names, scale):
        measurement = _run_l_breakdown(scenario)
        paper = PAPER_TABLE_2_MS.get(scenario.name, {})
        row: Row = {"table": "table2", "name": scenario.name, "family": scenario.family}
        row.update(measurement)
        row.update({f"paper_{key}_ms": value for key, value in paper.items()})
        rows.append(row)
    return rows


TABLE_RUNNERS = {"table1": table1, "table2": table2}
