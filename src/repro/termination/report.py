"""Timing breakdowns and termination reports.

The paper analyses its algorithms through a small, fixed vocabulary of time
parameters:

* ``t-parse``  — time to parse the TGDs from an input file;
* ``t-shapes`` — time to find the database shapes (linear TGDs only);
* ``t-graph``  — time to build the dependency graph (for linear TGDs this
  includes the dynamic simplification that feeds it);
* ``t-comp``   — time to find the special SCCs;
* ``t-total``  — the relevant sum (see Sections 7 and 8 for which parameters
  participate for SL and L).

:class:`TimingBreakdown` carries those parameters (in seconds), times the
checkers' phases into them (:meth:`TimingBreakdown.measure`), and the report
classes attach them to the boolean answer.  :func:`collector_paused` is the
one place that pauses Python's cyclic garbage collector around a check.
"""

from __future__ import annotations

import functools
import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional, TypeVar

from ..obs.clock import perf_counter_s

if TYPE_CHECKING:
    from ..simplification.dynamic import DynamicSimplificationResult

_Check = TypeVar("_Check", bound=Callable[..., object])


def collector_paused(check: _Check) -> _Check:
    """Run *check* with the cyclic garbage collector paused, around all its phases.

    A check allocates hundreds of thousands of containers (shapes, rules,
    graph dictionaries) that live until it returns, so the collector's passes
    keep walking them and find nothing: a check makes no garbage cycle, and
    reference counting frees everything it leaves.  The collector is
    switched back on when the check returns or raises, unless the caller had
    switched it off.  The switch is process-wide: checks on several threads
    leave it as the first of them found it.
    """

    @functools.wraps(check)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return check(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused  # type: ignore[return-value]


@dataclass
class TimingBreakdown:
    """The paper's time parameters, in seconds."""

    t_parse: float = 0.0
    t_shapes: float = 0.0
    t_graph: float = 0.0
    t_comp: float = 0.0

    @property
    def t_total(self) -> float:
        """End-to-end time: the sum of every recorded parameter."""
        return self.t_parse + self.t_shapes + self.t_graph + self.t_comp

    @property
    def db_independent(self) -> float:
        """The db-independent component of ``IsChaseFinite[L]`` (Section 8)."""
        return self.t_parse + self.t_graph + self.t_comp

    @property
    def db_dependent(self) -> float:
        """The db-dependent component of ``IsChaseFinite[L]`` (Section 8)."""
        return self.t_shapes

    @contextmanager
    def measure(self, phase: str) -> Iterator[None]:
        """Add the wall-clock time of the ``with`` body to the field *phase*."""
        start = perf_counter_s()
        try:
            yield
        finally:
            setattr(self, phase, getattr(self, phase) + (perf_counter_s() - start))

    def as_dict(self) -> Dict[str, float]:
        """Return all parameters plus the derived totals."""
        return {
            "t_parse": self.t_parse,
            "t_shapes": self.t_shapes,
            "t_graph": self.t_graph,
            "t_comp": self.t_comp,
            "t_total": self.t_total,
            "db_independent": self.db_independent,
            "db_dependent": self.db_dependent,
        }


@dataclass
class TerminationReport:
    """The answer of a termination check plus diagnostics.

    Attributes
    ----------
    finite:
        ``True`` when the semi-oblivious chase is guaranteed finite.
    algorithm:
        Which checker produced the answer (``"IsChaseFinite[SL]"``,
        ``"IsChaseFinite[L]"``, ``"weak-acyclicity"``, ``"materialization"``).
    timings:
        The per-phase timing breakdown.
    statistics:
        Free-form integer statistics (graph sizes, shape counts, ...).
    simplification:
        ``IsChaseFinite[L]`` only: the ``simple_D(Σ)`` state behind the
        verdict, which a later call can continue from (``resume=``).  It
        takes no part in equality or ``repr``.
    """

    finite: bool
    algorithm: str
    timings: TimingBreakdown = field(default_factory=TimingBreakdown)
    statistics: Dict[str, int] = field(default_factory=dict)
    simplification: Optional["DynamicSimplificationResult"] = field(
        default=None, compare=False, repr=False
    )

    def __bool__(self) -> bool:
        return self.finite


@dataclass
class MaterializationReport:
    """Outcome of the materialization-based baseline checker.

    Unlike the acyclicity-based checkers, this baseline may be inconclusive:
    when the configured budget is smaller than the theoretical bound
    ``k_{D,Σ}``, exceeding the budget proves nothing.
    """

    finite: Optional[bool]
    conclusive: bool
    atoms_materialized: int
    bound: int
    bound_saturated: bool
    elapsed_seconds: float

    def __bool__(self) -> bool:
        return bool(self.finite)
