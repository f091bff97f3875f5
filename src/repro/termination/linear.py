"""``IsChaseFinite[L]`` — Algorithm 3 of the paper.

Given a database ``D`` and a set ``Σ`` of linear TGDs, the semi-oblivious
chase of ``D`` with ``Σ`` is finite iff ``simple(Σ)`` is
``simple(D)``-weakly-acyclic (Theorem 3.6).  Static simplification being
exponential, the practical algorithm uses *dynamic* simplification and the
fact that for ``simple_D(Σ)`` plain weak acyclicity suffices (Lemma 4.5):

1. find the database shapes                                (``t-shapes``);
2. compute ``Σ_s = simple_D(Σ)`` via Algorithm 2, which emits its
   dependency graph as it goes                             (``t-graph``);
3. look for a special SCC; the chase is finite iff none exists
                                                           (``t-comp``).

Step 1 is the *db-dependent* component and accepts a pluggable shape
source: a raw :class:`~repro.core.instances.Database`, or one of the storage
substrate's ``FindShapes`` implementations (in-memory or in-database).
"""

from __future__ import annotations

from typing import Optional, Union

from ..core.parser import parse_rules
from ..core.tgds import TGDSet
from ..graph.tarjan import find_special_sccs
from ..simplification.dynamic import dynamic_simplification
from ..simplification.shapes import resolve_shapes
from .report import Stopwatch, TerminationReport, TimingBreakdown


def _find_shapes(shape_source, stopwatch: Stopwatch):
    """Resolve the shape source and measure ``t-shapes``.

    Resolution is delegated to
    :func:`repro.simplification.shapes.resolve_shapes` — the same helper
    dynamic simplification uses — so a given input takes the same path no
    matter the entry point.
    """
    with stopwatch.measure("t_shapes"):
        return resolve_shapes(shape_source)


def is_chase_finite_l(
    shape_source,
    tgds: Union[TGDSet, str],
    scc_method: str = "edge-scan",
) -> TerminationReport:
    """Run ``IsChaseFinite[L]`` and return a :class:`TerminationReport`.

    Parameters
    ----------
    shape_source:
        The database ``D`` (a :class:`~repro.core.instances.Database`), a
        shape finder exposing ``find_shapes()`` (see
        :mod:`repro.storage.shape_finder`), or a pre-computed iterable of
        :class:`~repro.simplification.shapes.Shape`.
    tgds:
        The set ``Σ`` of linear TGDs, or the text of a rule program (parsing
        is then measured as ``t-parse``).
    scc_method:
        Special-SCC detection method.
    """
    stopwatch = Stopwatch()

    if isinstance(tgds, str):
        with stopwatch.measure("t_parse"):
            tgds = parse_rules(tgds)
    tgds.require_linear()

    shapes = _find_shapes(shape_source, stopwatch)

    with stopwatch.measure("t_graph"):
        simplification = dynamic_simplification(shapes, tgds)
        graph = simplification.dependency_graph()

    with stopwatch.measure("t_comp"):
        special_sccs = find_special_sccs(graph, method=scc_method)
        finite = not special_sccs

    return TerminationReport(
        finite=finite,
        algorithm="IsChaseFinite[L]",
        timings=TimingBreakdown.from_stopwatch(stopwatch),
        statistics={
            "n_rules": len(tgds),
            "n_simplified_rules": simplification.rule_count,
            "n_initial_shapes": len(simplification.initial_shapes),
            "n_derived_shapes": len(simplification.derived_shapes),
            "n_iterations": simplification.iterations,
            "n_nodes": len(graph),
            "n_edges": graph.edge_count(),
            "n_special_edges": graph.special_edge_count(),
            "n_special_sccs": len(special_sccs),
        },
    )
