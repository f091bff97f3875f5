"""Experiment harness: sweep kinds, the experiments projected from them, configs, and reporting."""

from .config import DEFAULT, MEDIUM, PAPER, PRESETS, SMOKE, ExperimentConfig, preset
from .figures import FIGURES, run_experiment
from .reporting import format_table, group_mean, summarize_figure, write_csv
from .runner import (
    KINDS,
    SWEEP_KINDS,
    SweepResult,
    SweepTask,
    plan_sweep,
    run_sweep,
    sweep_summary,
)
from .workloads import (
    LinearRuleSet,
    SimpleLinearWorkload,
    build_dstar,
    build_linear_rule_set,
    build_simple_linear_workload,
    dstar_views,
    linear_rule_sets,
    restrict_view_to_rules,
)

__all__ = [
    "DEFAULT",
    "MEDIUM",
    "ExperimentConfig",
    "FIGURES",
    "KINDS",
    "LinearRuleSet",
    "PAPER",
    "PRESETS",
    "SMOKE",
    "SWEEP_KINDS",
    "SimpleLinearWorkload",
    "SweepResult",
    "SweepTask",
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
    "run_experiment",
    "run_sweep",
    "summarize_figure",
    "sweep_summary",
    "write_csv",
]
