"""Ablation studies backing two claims made in the paper's prose, as sweep kinds.

* Section 1.4: the materialization-based termination algorithm is "simply too
  expensive" compared with the acyclicity-based one — a
  ``materialization_vs_acyclicity`` task measures both on the same inputs.
* Section 4.2: dynamically simplified rule sets are much smaller than
  statically simplified ones (on average ~5x, up to ~1000x on the literature
  scenarios) — a ``static_vs_dynamic`` task measures the two sizes and their
  ratio.

Each kind runs :data:`RULE_SETS` tasks, one generated rule set each.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..chase.bounds import static_simplification_size_bound
from ..generators.data_generator import generate_database
from ..generators.tgd_generator import generate_tgds, make_schema
from ..obs.clock import perf_counter_s
from ..simplification.dynamic import dynamic_simplification
from ..simplification.static import static_simplification
from ..storage.shape_finder import InMemoryShapeFinder
from ..termination.materialization import is_chase_finite_materialization
from ..termination.simple_linear import is_chase_finite_sl

if TYPE_CHECKING:
    from .runner import SweepTask, _WorkerState

Row = Dict[str, object]

#: Generated rule sets per ablation (one sweep task each).
RULE_SETS = 6
#: ``static_vs_dynamic``: rules per set and their largest arity (static
#: simplification is exponential in it, so the sets stay small).
STATIC_RULES = 60
STATIC_MAX_ARITY = 5
#: ``materialization_vs_acyclicity``: rules per set and the atom budget of
#: the materialization baseline.
MATERIALIZATION_RULES = 30
MATERIALIZATION_BUDGET = 50_000


def static_vs_dynamic_rows(state: "_WorkerState", task: "SweepTask") -> List[Row]:
    """Compare ``|simple(Σ)|`` with ``|simple_D(Σ)|`` on one generated linear input.

    Static simplification is built explicitly (it is exponential in the
    arity, which is exactly the point); the ratio column is the quantity the
    paper reports as "on average 5 times smaller ... up to 1000 times
    smaller".
    """
    seed, index = state.config.seed, task.sample_index
    schema = make_schema(40, min_arity=1, max_arity=STATIC_MAX_ARITY, seed=seed)
    tgds = generate_tgds(
        schema,
        ssize=20,
        min_arity=1,
        max_arity=STATIC_MAX_ARITY,
        tsize=STATIC_RULES,
        tclass="L",
        seed=seed + index,
    )
    store = generate_database(
        preds=20,
        min_arity=1,
        max_arity=STATIC_MAX_ARITY,
        dsize=200,
        rsize=50,
        seed=seed + 100 + index,
        schema=schema,
    )
    shapes = InMemoryShapeFinder(store).find_shapes()

    start = perf_counter_s()
    static = static_simplification(tgds)
    t_static = perf_counter_s() - start

    start = perf_counter_s()
    dynamic = dynamic_simplification(shapes, tgds)
    t_dynamic = perf_counter_s() - start

    return [
        {
            "rule_set": index,
            "n_rules": len(tgds),
            "static_size": len(static),
            "static_size_bound": static_simplification_size_bound(tgds),
            "dynamic_size": dynamic.rule_count,
            "size_ratio": len(static) / max(1, dynamic.rule_count),
            "t_static": t_static,
            "t_dynamic": t_dynamic,
        }
    ]


def materialization_vs_acyclicity_rows(state: "_WorkerState", task: "SweepTask") -> List[Row]:
    """Compare the materialization-based baseline with the acyclicity-based checker.

    The acyclicity-based algorithm answers in milliseconds; the baseline
    either materialises a large instance (terminating inputs) or burns its
    whole budget without a conclusive answer (non-terminating inputs whose
    worst-case bound exceeds the budget) — reproducing the paper's
    observation that materialization is not a practical termination check.
    """
    seed, index = state.config.seed, task.sample_index
    schema = make_schema(30, min_arity=1, max_arity=3, seed=seed + 7)
    tgds = generate_tgds(
        schema,
        ssize=12,
        min_arity=1,
        max_arity=3,
        tsize=MATERIALIZATION_RULES,
        tclass="SL",
        seed=seed + 200 + index,
    )
    store = generate_database(
        preds=12,
        min_arity=1,
        max_arity=3,
        dsize=100,
        rsize=20,
        seed=seed + 300 + index,
        schema=schema,
    )
    database = store.to_database()

    start = perf_counter_s()
    acyclicity_report = is_chase_finite_sl(database, tgds)
    t_acyclic = perf_counter_s() - start

    materialization_report = is_chase_finite_materialization(
        database, tgds, max_atoms=MATERIALIZATION_BUDGET
    )

    return [
        {
            "rule_set": index,
            "n_rules": len(tgds),
            "n_atoms": len(database),
            "acyclicity_finite": acyclicity_report.finite,
            "materialization_finite": materialization_report.finite,
            "materialization_conclusive": materialization_report.conclusive,
            "atoms_materialized": materialization_report.atoms_materialized,
            "t_acyclicity": t_acyclic,
            "t_materialization": materialization_report.elapsed_seconds,
            "t_slowdown": materialization_report.elapsed_seconds / max(t_acyclic, 1e-9),
        }
    ]
