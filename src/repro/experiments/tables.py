"""Tables 1 and 2 (Section 9 — validation on literature scenarios) as sweep kinds.

Table 1 reports the statistics of the Deep, LUBM, and iBench scenarios;
Table 2 reports the runtime breakdown of ``IsChaseFinite[L]`` on them, with
the ``FindShapes`` step measured both with the in-database and the in-memory
implementation.  A ``table1``/``table2`` sweep task builds one scenario of
``config.scenarios`` at ``config.scenario_scale``.

The scenarios are synthetic analogues built at a configurable scale (see
:mod:`repro.scenarios`); every row therefore carries both the paper's
reported value and the value measured on the rebuilt scenario.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..core.serializer import serialize_rules
from ..obs.clock import perf_counter_s
from ..scenarios import PAPER_TABLE_2_MS, Scenario, build_scenario
from ..storage.shape_finder import InDatabaseShapeFinder, InMemoryShapeFinder
from ..termination.linear import is_chase_finite_l

if TYPE_CHECKING:
    from .runner import SweepTask, _WorkerState

Row = Dict[str, object]


def _scenario(state: "_WorkerState", task: "SweepTask") -> Scenario:
    config = state.config
    return build_scenario(config.scenarios[task.sample_index], scale=config.scenario_scale)


def table1_rows(state: "_WorkerState", task: "SweepTask") -> List[Row]:
    """Table 1: one scenario's statistics (paper value vs rebuilt value)."""
    scenario = _scenario(state, task)
    measured = scenario.measured_stats()
    paper = scenario.paper_stats
    return [
        {
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
    ]


def table2_rows(state: "_WorkerState", task: "SweepTask") -> List[Row]:
    """Table 2: one scenario's runtime of ``IsChaseFinite[L]`` (seconds).

    ``IsChaseFinite[L]`` runs once, on the in-memory finder; the in-database
    finder is timed on its own and must find the same shapes.  The row also
    carries the paper's reported milliseconds so the two can be printed side
    by side; absolute values are not expected to match (the substrate
    differs), only the relative structure — parsing and graph work
    negligible, ``FindShapes`` dominant, in-database faster than in-memory
    for the LUBM/iBench style scenarios and slower for Deep.
    """
    scenario = _scenario(state, task)
    report = is_chase_finite_l(
        InMemoryShapeFinder(scenario.store), serialize_rules(scenario.tgds)
    )
    start = perf_counter_s()
    shapes_in_db = InDatabaseShapeFinder(scenario.store).find_shapes()
    t_shapes_in_db = perf_counter_s() - start

    timings = report.timings
    row: Row = {
        "name": scenario.name,
        "family": scenario.family,
        "t_parse": timings.t_parse,
        "t_graph": timings.t_graph,
        "t_comp": timings.t_comp,
        "t_shapes_in_db": t_shapes_in_db,
        "t_shapes_in_memory": timings.t_shapes,
        "t_total_in_db": timings.db_independent + t_shapes_in_db,
        "t_total_in_memory": timings.t_total,
        "finite": report.finite,
        "n_rules": report.statistics["n_rules"],
        "n_shapes": report.statistics["n_initial_shapes"],
        "n_simplified_rules": report.statistics["n_simplified_rules"],
        "shapes_agree": shapes_in_db == report.simplification.initial_shapes,
    }
    paper = PAPER_TABLE_2_MS.get(scenario.name, {})
    row.update({f"paper_{key}_ms": value for key, value in paper.items()})
    return [row]
