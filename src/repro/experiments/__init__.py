"""Experiment harness: figure/table/ablation runners, configs, and reporting."""

from .ablations import (
    ABLATION_RUNNERS,
    ablation_materialization_vs_acyclicity,
    ablation_static_vs_dynamic_simplification,
)
from .config import DEFAULT, MEDIUM, PAPER, PRESETS, SMOKE, ExperimentConfig, preset
from .figures import FIGURE_RUNNERS
from .reporting import format_table, group_mean, summarize_figure, write_csv
from .runner import (
    SWEEP_KINDS,
    SweepResult,
    SweepTask,
    plan_sweep,
    run_sweep,
    sweep_summary,
)
from .tables import TABLE_RUNNERS, table1, table2
from .workloads import (
    AdversarialWorkload,
    LinearRuleSet,
    SimpleLinearWorkload,
    adversarial_workloads,
    build_dstar,
    build_linear_rule_set,
    build_simple_linear_workload,
    dstar_views,
    linear_rule_sets,
    restrict_view_to_rules,
    simple_linear_workloads,
)

#: Every runner keyed by experiment id (used by the CLI).
ALL_RUNNERS = {**FIGURE_RUNNERS, **TABLE_RUNNERS}

__all__ = [
    "ABLATION_RUNNERS",
    "AdversarialWorkload",
    "ALL_RUNNERS",
    "DEFAULT",
    "MEDIUM",
    "ExperimentConfig",
    "FIGURE_RUNNERS",
    "LinearRuleSet",
    "PAPER",
    "PRESETS",
    "SMOKE",
    "SWEEP_KINDS",
    "SimpleLinearWorkload",
    "SweepResult",
    "SweepTask",
    "TABLE_RUNNERS",
    "ablation_materialization_vs_acyclicity",
    "ablation_static_vs_dynamic_simplification",
    "adversarial_workloads",
    "build_dstar",
    "build_linear_rule_set",
    "build_simple_linear_workload",
    "dstar_views",
    "format_table",
    "group_mean",
    "linear_rule_sets",
    "plan_sweep",
    "preset",
    "restrict_view_to_rules",
    "run_sweep",
    "simple_linear_workloads",
    "summarize_figure",
    "sweep_summary",
    "table1",
    "table2",
    "write_csv",
]
