"""Incremental ``IsChaseFinite[L]`` across growing prefix views (Section 8.1).

The paper's linear experiments run Algorithm 3 from scratch on every prefix
view of ``D*`` even though the views grow monotonically: the shapes of view
``i+1`` are a superset of view ``i``'s, and therefore so are ``simple_D(Σ)``
and its dependency graph.  :class:`IncrementalLinearChecker` exploits all
three inclusions:

* **t-shapes** — a shared :class:`~repro.storage.shape_finder.DeltaShapeFinder`
  scans only the rows beyond the previous view's offset and unions with the
  cached shape set;
* **t-graph** — the ``simple_D(Σ)`` fixpoint of view ``i`` seeds Algorithm
  2's frontier for view ``i+1`` (``is_chase_finite_l(..., resume=...)``), and
  only the newly derived simplified rules add edges to the dependency graph;
* **t-comp** — the special-SCC search is re-run on the extended graph (it is
  the cheapest step; the paper's Table 2 shows it is negligible).

The checker itself is only the ascending-order guard around one
:func:`~repro.termination.linear.is_chase_finite_l` call per view.  The
produced verdicts, shape sets, and dependency graphs are identical to
from-scratch runs — ``tests/termination/test_incremental.py`` proves this
differentially on iBench/LUBM/Deep-derived workloads and on the synthetic
``D*`` grid.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional, Union

from ..core.parser import parse_rules
from ..core.tgds import TGDSet
from ..graph.dependency_graph import DependencyGraph
from ..simplification.dynamic import DynamicSimplificationResult
from ..storage.shape_finder import DeltaShapeFinder
from .linear import is_chase_finite_l
from .report import TerminationReport


class IncrementalLinearChecker:
    """Run ``IsChaseFinite[L]`` on a ladder of growing prefix views.

    One checker instance serves one rule set ``Σ``; call :meth:`check` with
    each view in ascending size order (the delta finder itself tolerates any
    order, but the simplification resume requires monotone shape sets, which
    ascending prefix views guarantee).

    Parameters
    ----------
    tgds:
        The set ``Σ`` of linear TGDs (or rule text).
    shape_finder:
        A :class:`~repro.storage.shape_finder.DeltaShapeFinder` bound to the
        views' base store.  Pass a shared instance to amortise the scan
        across several rule sets over the same ``D*``.
    """

    def __init__(
        self,
        tgds: Union[TGDSet, str],
        shape_finder: DeltaShapeFinder,
    ):
        if isinstance(tgds, str):
            tgds = parse_rules(tgds)
        tgds.require_linear()
        self._tgds = tgds
        self._finder = shape_finder
        self._simplification: Optional[DynamicSimplificationResult] = None
        self._last_limit: Optional[float] = None

    @property
    def tgds(self) -> TGDSet:
        """The rule set this checker serves."""
        return self._tgds

    @property
    def graph(self) -> Optional[DependencyGraph]:
        """The dependency graph of ``simple_D(Σ)`` for the last checked view."""
        return None if self._simplification is None else self._simplification.dependency_graph()

    @property
    def simplification(self) -> Optional[DynamicSimplificationResult]:
        """The ``simple_D(Σ)`` state for the last checked view."""
        return self._simplification

    def check(self, view) -> TerminationReport:
        """Run the incremental ``IsChaseFinite[L]`` step for *view*.

        Views must arrive in ascending size order: the resumed fixpoint only
        ever grows, so a shrinking view would silently reuse the larger
        view's state and could return a wrong verdict.  (The shared
        :class:`DeltaShapeFinder` *does* answer non-monotone queries — the
        monotonicity requirement is per checker, not per finder.)
        """
        limit = getattr(view, "tuples_per_relation", None)
        effective = float("inf") if limit is None else limit
        if self._last_limit is not None and effective < self._last_limit:
            raise ValueError(
                f"prefix views must be checked in ascending size order; got "
                f"{limit} after {self._last_limit} (use a fresh checker per ladder)"
            )
        self._last_limit = effective
        # The delta finder's scan of *view* is the shape source, so t-shapes
        # times it.
        source = SimpleNamespace(find_shapes=lambda: self._finder.shapes_for(view))
        report = is_chase_finite_l(source, self._tgds, resume=self._simplification)
        self._simplification = report.simplification
        return report
