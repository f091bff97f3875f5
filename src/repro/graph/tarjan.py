"""Strongly connected components and special SCCs (Section 5.2).

The termination algorithms never enumerate cycles explicitly (there can be
exponentially many); instead they look for *special SCCs* — strongly
connected components containing at least one special edge — because a
"bad" cycle (a cycle with a special edge) exists iff some SCC is special.

One **iterative** Tarjan's algorithm (the recursive textbook version would
blow the Python stack on the large dependency graphs produced by the
generators) runs over the graph's node numbers and serves both entry points:

* :func:`find_sccs` returns every component;
* :func:`find_special_sccs` returns the special ones, found by the paper's
  *token* mechanism: a token is pushed on the Tarjan stack whenever a special
  edge is traversed, and a component popped together with a token whose
  edge ends inside it is special.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

from ..core.predicates import Position
from .dependency_graph import DependencyGraph


@dataclass(frozen=True)
class SCC:
    """A strongly connected component of a dependency graph."""

    nodes: FrozenSet[Position]
    special: bool

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: object) -> bool:
        return node in self.nodes

    def representative(self) -> Position:
        """Return an arbitrary but deterministic member (Algorithm 1, line 3)."""
        return min(self.nodes)


def _components(forward: Sequence[Dict[int, bool]]) -> Iterator[Tuple[List[int], bool]]:
    """Yield ``(members, special)`` per component of the int graph *forward*.

    The Tarjan stack holds node numbers and, as ``~target``, one token per
    special edge traversed (pushed even when the edge leads to a visited
    node, as Section 5.2 describes).  A token sits above its edge's source,
    so it is popped with the source's component; that component is special
    when the edge's target was popped with it too — the membership check
    drops the tokens of edges that *leave* the component.
    """
    size = len(forward)
    index_of = [-1] * size
    lowlink = [0] * size
    component_of = [-1] * size  # -1 while unvisited or still on the stack
    stack: List[int] = []
    counter = 0
    component = 0

    for root in range(size):
        if index_of[root] >= 0:
            continue
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        # Each frame is (node, iterator over its outgoing edges).
        work = [(root, iter(forward[root].items()))]
        while work:
            node, edges = work[-1]
            for target, special in edges:
                if special:
                    stack.append(~target)
                if index_of[target] < 0:
                    index_of[target] = lowlink[target] = counter
                    counter += 1
                    stack.append(target)
                    work.append((target, iter(forward[target].items())))
                    break
                if component_of[target] < 0 and index_of[target] < lowlink[node]:
                    lowlink[node] = index_of[target]
            else:
                work.pop()
                if work and lowlink[node] < lowlink[work[-1][0]]:
                    lowlink[work[-1][0]] = lowlink[node]
                if lowlink[node] == index_of[node]:
                    members: List[int] = []
                    token_targets: List[int] = []
                    while True:
                        entry = stack.pop()
                        if entry < 0:
                            token_targets.append(~entry)
                            continue
                        members.append(entry)
                        component_of[entry] = component
                        if entry == node:
                            break
                    yield members, any(component_of[t] == component for t in token_targets)
                    component += 1


def find_sccs(graph: DependencyGraph) -> List[FrozenSet[Position]]:
    """Return the strongly connected components of *graph* (iterative Tarjan)."""
    return [frozenset(map(graph.position, members)) for members, _ in _components(graph.forward)]


def find_special_sccs(graph: DependencyGraph, method: str = "edge-scan") -> List[SCC]:
    """``FindSpecialSCC(G)``: return the special SCCs of a dependency graph.

    A single-node component only counts when it carries a special self-loop
    (otherwise the node lies on no cycle at all).

    Parameters
    ----------
    method:
        ``"edge-scan"`` (default) or ``"token"``.  There is one search — the
        token mechanism above, whose pop-time membership check is the edge
        scan — and both names select it.
    """
    if method not in ("edge-scan", "token"):
        raise ValueError(f"unknown method {method!r}; expected 'edge-scan' or 'token'")
    return [
        SCC(nodes=frozenset(map(graph.position, members)), special=True)
        for members, special in _components(graph.forward)
        if special
    ]


def has_special_cycle(graph: DependencyGraph) -> bool:
    """Return ``True`` when the graph has a cycle through a special edge."""
    return any(special for _members, special in _components(graph.forward))
