"""``IsChaseFinite[SL]`` — Algorithm 1 of the paper.

Given a database ``D`` and a set ``Σ`` of simple-linear TGDs, the
semi-oblivious chase of ``D`` with ``Σ`` is finite iff ``Σ`` is
``D``-weakly-acyclic (Theorem 3.3).  The practical algorithm:

1. build the dependency graph ``G`` of ``Σ``             (``t-graph``);
2. find the special SCCs of ``G``                        (``t-comp``);
3. pick one representative node per special SCC and ask whether the
   database supports any of them (``Supports``); if yes the chase is
   infinite, otherwise finite.

The paper's Remark 1 argues the ``Supports`` step is negligible; the
implementation still measures it (folded into ``t-comp``) so that the
experiment harness can verify that claim rather than assume it.
"""

from __future__ import annotations

from typing import Union

from ..core.instances import Database
from ..core.parser import parse_rules
from ..core.tgds import TGDSet
from ..graph.dependency_graph import _build, _link_empty_frontier
from ..graph.reachability import supports
from ..graph.tarjan import find_special_sccs
from .report import TerminationReport, TimingBreakdown, collector_paused


@collector_paused
def is_chase_finite_sl(
    database: Database,
    tgds: Union[TGDSet, str],
) -> TerminationReport:
    """Run ``IsChaseFinite[SL]`` and return a :class:`TerminationReport`.

    Parameters
    ----------
    database:
        The input database ``D``.
    tgds:
        The set ``Σ`` of simple-linear TGDs, or the text of a rule program
        (in which case parsing is measured as ``t-parse``).
    """
    timings = TimingBreakdown()

    if isinstance(tgds, str):
        with timings.measure("t_parse"):
            tgds = parse_rules(tgds)
    tgds.require_simple_linear()

    with timings.measure("t_graph"):
        # One walk over the compiled rules builds dg(Σ) and finds the
        # empty-frontier rules.
        graph, empty_frontier = _build(tgds)

    with timings.measure("t_comp"):
        special_sccs = find_special_sccs(graph)
        if not special_sccs:
            finite = True
            supported = False
        else:
            representatives = [scc.representative() for scc in special_sccs]
            # Empty-frontier TGDs contribute no edges to dg(Σ) but still
            # propagate derivability; the support check uses an augmented
            # copy in that corner case (see build_support_graph).
            support_graph = graph
            if empty_frontier:
                support_graph = graph.copy()
                _link_empty_frontier(support_graph, empty_frontier)
            supported = supports(database, representatives, support_graph)
            finite = not supported

    return TerminationReport(
        finite=finite,
        algorithm="IsChaseFinite[SL]",
        timings=timings,
        statistics={
            "n_rules": len(tgds),
            "n_nodes": len(graph),
            "n_edges": graph.edge_count(),
            "n_special_edges": graph.special_edge_count(),
            "n_special_sccs": len(special_sccs),
            "supported": int(supported),
        },
    )
