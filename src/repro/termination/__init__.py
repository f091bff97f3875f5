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
from .weak_acyclicity import is_weakly_acyclic, is_weakly_acyclic_wrt

__all__ = [
    "IncrementalLinearChecker",
    "MaterializationReport",
    "TerminationReport",
    "TimingBreakdown",
    "is_chase_finite_l",
    "is_chase_finite_materialization",
    "is_chase_finite_sl",
    "is_weakly_acyclic",
    "is_weakly_acyclic_wrt",
]
