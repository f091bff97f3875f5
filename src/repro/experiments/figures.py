"""Every experiment of the paper's evaluation — the figures (Sections 7, 8,
Appendix A), Tables 1/2 (Section 9) and the two ablations (§1.4, §4.2) — as
a projection of sweep rows (:mod:`repro.experiments.runner`).

An experiment is a :class:`FigureSpec` — a sweep kind, a task/row filter and
a column list.  :func:`run_experiment` runs the experiment's sweep tasks from
scratch (the paper's per-view pipeline) and projects their rows; times are
seconds.
``figure1`` is ``IsChaseFinite[SL]`` vs ``n-rules``; ``figure2`` the shape
count and ``figure3``/``figure4`` the in-memory/in-database ``FindShapes``
runtime vs database size; ``figure5``/``6``/``7`` the db-independent runtime
of ``IsChaseFinite[L]`` vs ``n-rules`` for the predicate profiles [400,600],
[5,200], [200,400] and ``figure_db_independent_vs_size`` the same vs
database size (there ``t_total`` is ``t_parse + t_graph + t_comp``);
``figure_edges`` the dependency-graph edges vs ``n-rules`` (appendix).
``table1``/``table2`` and ``static_vs_dynamic``/``materialization_vs_acyclicity``
keep every row and column of their kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..exceptions import ExperimentConfigError
from .config import DEFAULT, ExperimentConfig
from .runner import Row, _execute_task, _WorkerState, plan_sweep


@dataclass(frozen=True)
class FigureSpec:
    """One experiment: its sweep kind, the kept predicate profile (an index
    into ``config.predicate_profiles()``), ``FindShapes`` method or largest
    view, and its columns in order (the ``tag`` column holds the experiment's
    id; ``sources`` maps a column to the sweep-row column it reads).  Without
    ``columns`` a row keeps the tag and every sweep-row column but
    ``task_id`` and ``kind``."""

    kind: str
    columns: Optional[Tuple[str, ...]] = None
    tag: str = "figure"
    predicate_profile: Optional[int] = None
    method: Optional[str] = None
    largest_view: bool = False
    sources: Dict[str, str] = field(default_factory=dict)


_DB_INDEPENDENT = ("predicate_profile", "tgd_profile", "n_rules", "n_shapes", "n_simplified_rules",
                   "n_edges", "finite", "t_parse", "t_graph", "t_comp", "t_total", "figure",
                   "n_tuples_per_relation")
_TOTAL = {"t_total": "t_db_independent"}
_FIND_SHAPES = ("figure", "method", "predicate_profile", "n_tuples_per_relation",
                "n_tuples_total", "n_shapes", "t_shapes", "rows_scanned", "queries_issued")

#: Every experiment by id: the one registry behind ``run`` and ``list``.
FIGURES = {
    "figure1": FigureSpec("sl", ("figure", "predicate_profile", "tgd_profile", "n_rules",
                                 "n_edges", "finite", "t_parse", "t_graph", "t_comp", "t_total")),
    "figure_db_independent_vs_size": FigureSpec("l", _DB_INDEPENDENT + ("n_tuples_total",),
                                                sources=_TOTAL),
    "figure2": FigureSpec("shapes", ("figure", "predicate_profile", "tgd_profile",
                                     "n_tuples_per_relation", "n_tuples_total", "n_predicates",
                                     "n_shapes"), method="in-memory"),
    "figure3": FigureSpec("shapes", _FIND_SHAPES, method="in-memory"),
    "figure4": FigureSpec("shapes", _FIND_SHAPES, method="in-database"),
    "figure5": FigureSpec("l", _DB_INDEPENDENT, predicate_profile=2, sources=_TOTAL),
    "figure6": FigureSpec("l", _DB_INDEPENDENT, predicate_profile=0, sources=_TOTAL),
    "figure7": FigureSpec("l", _DB_INDEPENDENT, predicate_profile=1, sources=_TOTAL),
    "figure_edges": FigureSpec("l", ("figure", "predicate_profile", "tgd_profile", "n_rules",
                                     "n_edges", "n_special_edges"), largest_view=True),
    "table1": FigureSpec("table1", tag="table"),
    "table2": FigureSpec("table2", tag="table"),
    "static_vs_dynamic": FigureSpec("static_vs_dynamic", tag="ablation"),
    "materialization_vs_acyclicity": FigureSpec("materialization_vs_acyclicity", tag="ablation"),
}


def run_experiment(name: str, config: ExperimentConfig = DEFAULT) -> List[Row]:
    """Run the sweep tasks experiment *name* needs, from scratch, and project their rows."""
    if name not in FIGURES:
        raise ExperimentConfigError(f"unknown experiment {name!r}; expected one of {sorted(FIGURES)}")
    spec = FIGURES[name]
    tasks = plan_sweep(config, (spec.kind,))
    if spec.predicate_profile is not None:
        label = config.predicate_profiles()[spec.predicate_profile].label
        combined = config.combined_profiles()
        tasks = [task for task in tasks if combined[task.profile_index].predicates.label == label]
    state = _WorkerState(config, (spec.kind,), incremental=False)
    rows = [row for task in tasks for row in _execute_task(state, task)]
    if spec.method is not None:
        rows = [row for row in rows if row["method"] == spec.method]
    if spec.largest_view:
        largest = max(config.database_sizes())
        rows = [row for row in rows if row["n_tuples_per_relation"] == largest]
    return [
        {
            column: name if column == spec.tag else row[spec.sources.get(column, column)]
            for column in spec.columns
            or (spec.tag, *(key for key in row if key not in ("task_id", "kind")))
        }
        for row in rows
    ]
