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
source: a raw :class:`~repro.core.instances.Database` or any other row store
(a chase result's store or view included), or one of the storage
substrate's ``FindShapes`` implementations (in-memory or in-database).
"""

from __future__ import annotations

from typing import Optional, Union

from ..core.parser import parse_rules
from ..core.tgds import TGDSet
from ..graph.tarjan import find_special_sccs
from ..simplification.dynamic import (
    DynamicSimplificationResult,
    dynamic_simplification,
    resume_dynamic_simplification,
)
from ..simplification.shapes import resolve_shapes
from .report import TerminationReport, TimingBreakdown, collector_paused


@collector_paused
def is_chase_finite_l(
    shape_source,
    tgds: Union[TGDSet, str],
    *,
    resume: Optional[DynamicSimplificationResult] = None,
) -> TerminationReport:
    """Run ``IsChaseFinite[L]`` and return a :class:`TerminationReport`.

    This is the one implementation of the pipeline and of its timings: the
    experiment runners, the sweep and
    :class:`~repro.termination.incremental.IncrementalLinearChecker` all
    call it and read the report.

    Parameters
    ----------
    shape_source:
        The database ``D`` (a :class:`~repro.core.instances.Database` or
        any other row store), a shape finder exposing ``find_shapes()`` (see
        :mod:`repro.storage.shape_finder`), or a pre-computed iterable of
        :class:`~repro.simplification.shapes.Shape`.  Resolution is
        delegated to :func:`repro.simplification.shapes.resolve_shapes`, so
        a given input takes the same path no matter the entry point.
    tgds:
        The set ``Σ`` of linear TGDs, or the text of a rule program (parsing
        is then measured as ``t-parse``).
    resume:
        The ``simplification`` of a previous report for the same ``Σ`` whose
        shapes are a subset of this source's (a smaller prefix view).
        Algorithm 2 then continues from that fixpoint
        (:func:`~repro.simplification.dynamic.resume_dynamic_simplification`)
        instead of starting over; the verdict and every statistic except
        ``n_iterations`` (which counts only the resumed iterations) equal a
        from-scratch run's.
    """
    timings = TimingBreakdown()

    if isinstance(tgds, str):
        with timings.measure("t_parse"):
            tgds = parse_rules(tgds)
    tgds.require_linear()

    with timings.measure("t_shapes"):
        shapes = resolve_shapes(shape_source)

    with timings.measure("t_graph"):
        if resume is None:
            simplification = dynamic_simplification(shapes, tgds)
        else:
            simplification = resume_dynamic_simplification(resume, shapes, tgds)
        graph = simplification.dependency_graph()

    with timings.measure("t_comp"):
        special_sccs = find_special_sccs(graph)
        finite = not special_sccs

    return TerminationReport(
        finite=finite,
        algorithm="IsChaseFinite[L]",
        timings=timings,
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
        simplification=simplification,
    )
