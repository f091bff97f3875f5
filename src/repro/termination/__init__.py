"""Chase-termination checkers: acyclicity-based, materialization-based, and reports."""

from .incremental import IncrementalLinearChecker
from .linear import is_chase_finite_l
from .materialization import is_chase_finite_materialization
from .report import (
    MaterializationReport,
    TerminationReport,
    TimingBreakdown,
)
from .simple_linear import is_chase_finite_sl

__all__ = [
    "IncrementalLinearChecker",
    "MaterializationReport",
    "TerminationReport",
    "TimingBreakdown",
    "is_chase_finite_l",
    "is_chase_finite_materialization",
    "is_chase_finite_sl",
]
