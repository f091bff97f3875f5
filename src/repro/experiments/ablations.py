"""Ablation studies backing two claims made in the paper's prose.

* Section 1.4: the materialization-based termination algorithm is "simply too
  expensive" compared with the acyclicity-based one —
  :func:`ablation_materialization_vs_acyclicity` measures both on the same
  inputs.
* Section 4.2: dynamically simplified rule sets are much smaller than
  statically simplified ones (on average ~5x, up to ~1000x on the literature
  scenarios) — :func:`ablation_static_vs_dynamic_simplification` measures the
  two sizes and their ratio.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..chase.bounds import static_simplification_size_bound
from ..core.instances import Database
from ..generators.data_generator import generate_database
from ..generators.tgd_generator import generate_tgds, make_schema
from ..obs.clock import perf_counter_s
from ..simplification.dynamic import dynamic_simplification
from ..simplification.static import static_simplification
from ..storage.shape_finder import InMemoryShapeFinder
from ..termination.linear import is_chase_finite_l
from ..termination.materialization import is_chase_finite_materialization
from ..termination.simple_linear import is_chase_finite_sl
from .config import DEFAULT, ExperimentConfig

Row = Dict[str, object]


def ablation_static_vs_dynamic_simplification(
    config: ExperimentConfig = DEFAULT,
    n_rule_sets: int = 6,
    rules_per_set: int = 60,
    max_arity: int = 5,
) -> List[Row]:
    """Compare ``|simple(Σ)|`` with ``|simple_D(Σ)|`` on generated linear inputs.

    Static simplification is built explicitly (it is exponential in the
    arity, which is exactly the point), so the rule sets are kept small; the
    ratio column is the quantity the paper reports as "on average 5 times
    smaller ... up to 1000 times smaller".
    """
    rows: List[Row] = []
    schema = make_schema(40, min_arity=1, max_arity=max_arity, seed=config.seed)
    for index in range(n_rule_sets):
        tgds = generate_tgds(
            schema,
            ssize=20,
            min_arity=1,
            max_arity=max_arity,
            tsize=rules_per_set,
            tclass="L",
            seed=config.seed + index,
        )
        store = generate_database(
            preds=20,
            min_arity=1,
            max_arity=max_arity,
            dsize=200,
            rsize=50,
            seed=config.seed + 100 + index,
            schema=schema,
        )
        shapes = InMemoryShapeFinder(store).find_shapes()

        start = perf_counter_s()
        static = static_simplification(tgds)
        t_static = perf_counter_s() - start

        start = perf_counter_s()
        dynamic = dynamic_simplification(shapes, tgds)
        t_dynamic = perf_counter_s() - start

        dynamic_size = max(1, dynamic.rule_count)
        rows.append(
            {
                "ablation": "static_vs_dynamic",
                "rule_set": index,
                "n_rules": len(tgds),
                "static_size": len(static),
                "static_size_bound": static_simplification_size_bound(tgds),
                "dynamic_size": dynamic.rule_count,
                "size_ratio": len(static) / dynamic_size,
                "t_static": t_static,
                "t_dynamic": t_dynamic,
            }
        )
    return rows


def ablation_materialization_vs_acyclicity(
    config: ExperimentConfig = DEFAULT,
    n_rule_sets: int = 6,
    rules_per_set: int = 30,
    materialization_budget: int = 50_000,
) -> List[Row]:
    """Compare the materialization-based baseline with the acyclicity-based checkers.

    The acyclicity-based algorithms answer in milliseconds; the baseline
    either materialises a large instance (terminating inputs) or burns its
    whole budget without a conclusive answer (non-terminating inputs whose
    worst-case bound exceeds the budget) — reproducing the paper's
    observation that materialization is not a practical termination check.
    """
    rows: List[Row] = []
    schema = make_schema(30, min_arity=1, max_arity=3, seed=config.seed + 7)
    for index in range(n_rule_sets):
        tgds = generate_tgds(
            schema,
            ssize=12,
            min_arity=1,
            max_arity=3,
            tsize=rules_per_set,
            tclass="SL",
            seed=config.seed + 200 + index,
        )
        store = generate_database(
            preds=12,
            min_arity=1,
            max_arity=3,
            dsize=100,
            rsize=20,
            seed=config.seed + 300 + index,
            schema=schema,
        )
        database = store.to_database()

        start = perf_counter_s()
        acyclicity_report = is_chase_finite_sl(database, tgds)
        t_acyclic = perf_counter_s() - start

        materialization_report = is_chase_finite_materialization(
            database, tgds, max_atoms=materialization_budget
        )

        rows.append(
            {
                "ablation": "materialization_vs_acyclicity",
                "rule_set": index,
                "n_rules": len(tgds),
                "n_atoms": len(database),
                "acyclicity_finite": acyclicity_report.finite,
                "materialization_finite": materialization_report.finite,
                "materialization_conclusive": materialization_report.conclusive,
                "atoms_materialized": materialization_report.atoms_materialized,
                "t_acyclicity": t_acyclic,
                "t_materialization": materialization_report.elapsed_seconds,
                "slowdown": materialization_report.elapsed_seconds / max(t_acyclic, 1e-9),
            }
        )
    return rows


ABLATION_RUNNERS = {
    "static_vs_dynamic": ablation_static_vs_dynamic_simplification,
    "materialization_vs_acyclicity": ablation_materialization_vs_acyclicity,
}
