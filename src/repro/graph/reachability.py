"""Predicate reachability and the ``Supports`` check (Sections 3 and 5.3).

A predicate ``P`` is *reachable* from ``R`` (w.r.t. ``Σ``) when ``R = P`` or
some path of ``dg(Σ)`` leads from a position of ``R`` to a position of ``P``.
A path/cycle ``C`` is *D-supported* when it contains a node ``(P, i)`` such
that ``P`` is reachable from the predicate of some database atom.

``Supports(D, P, G)`` — Algorithm 1, line 4 — asks whether the database
supports any of a set of positions (one representative per special SCC).
Following Section 5.3 it is implemented in two steps:

1. obtain the set of *extensional* predicates (the non-empty relations of
   the database) — in the paper this is a catalog query against the DBMS;
   here it is served either by a :class:`~repro.core.instances.Database` or
   by the storage substrate's catalog;
2. traverse the dependency graph *backwards* from the candidate positions
   using the reverse adjacency lists, stopping as soon as a position of an
   extensional predicate is reached.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Sequence, Set

from ..core.predicates import Position, Predicate
from .dependency_graph import DependencyGraph


def extensional_predicates(database) -> Set[Predicate]:
    """Return the predicates with at least one tuple in *database*.

    Accepts either a :class:`~repro.core.instances.Database`/``Instance`` or
    any object exposing ``non_empty_predicates()`` (the storage catalog).
    """
    if hasattr(database, "non_empty_predicates"):
        return set(database.non_empty_predicates())
    return set(database.predicates())


def _walk(adjacency: Sequence[Dict[int, bool]], start: List[int]) -> Iterator[int]:
    """Yield the node numbers reachable from *start* over *adjacency*, breadth first."""
    visited = set(start)
    queue = deque(start)
    while queue:
        for neighbour in adjacency[queue.popleft()]:
            if neighbour not in visited:
                visited.add(neighbour)
                queue.append(neighbour)
                yield neighbour


def supports(database, positions: Iterable[Position], graph: DependencyGraph) -> bool:
    """``Supports(D, P, G)``: does *database* support any position of *positions*?

    A position ``(P, i)`` is supported when ``P`` is reachable from the
    predicate of some database atom.  The implementation walks the graph
    backwards from the candidate positions over the reverse adjacency maps
    (Section 5.3, step 2) and stops at the first position whose predicate is
    extensional; because reachability is defined at the predicate level, the
    backward walk starts from *every* position of the candidates' predicates.
    """
    candidate_predicates = {position.predicate for position in positions}
    extensional = extensional_predicates(database)
    if not candidate_predicates or not extensional:
        return False
    if candidate_predicates & extensional:
        return True
    extensional_nodes = set(graph.nodes_of_predicates(extensional))
    start = graph.nodes_of_predicates(candidate_predicates)
    return any(node in extensional_nodes for node in _walk(graph.reverse, start))
