"""The reference builder for dependency graphs — the differential oracle.

This is the builder ``repro.graph.dependency_graph`` had before it walked
compiled rules: it reads every TGD through its :class:`~repro.core.atoms.Atom`
objects and :class:`~repro.core.terms.Variable` frontier, and adds nodes and
edges through :class:`~repro.graph.dependency_graph.DependencyGraph`'s public
``add_predicate`` and ``link``.  Nodes are made in the same order (the schema
sorted, then per TGD its head atoms, then its body atoms), so node numbers
and adjacency insertion order can be compared too.
``tests/graph/test_graph_differential.py`` holds the builder to it.  Nothing
under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.core.predicates import Schema
from repro.core.terms import Variable
from repro.core.tgds import TGD
from repro.graph.dependency_graph import DependencyGraph


def add_tgd_edges(graph: DependencyGraph, tgd: TGD) -> None:
    """Add the nodes and dependency edges of one TGD to *graph*."""
    frontier = tgd.frontier()
    normal_targets: Dict[Variable, List[int]] = {}
    special_targets: List[int] = []
    for atom in tgd.head:
        for node, term in zip(graph.add_predicate(atom.predicate), atom.terms):
            if term in frontier:
                normal_targets.setdefault(term, []).append(node)
            else:
                special_targets.append(node)
    for atom in tgd.body:
        for source, term in zip(graph.add_predicate(atom.predicate), atom.terms):
            for target in normal_targets.get(term, ()):
                graph.link(source, target, False)
            if term in frontier:
                for target in special_targets:
                    graph.link(source, target, True)


def reference_dependency_graph(tgds: Iterable[TGD]) -> DependencyGraph:
    """``dg(Σ)``, numbered by the sorted schema of *tgds* recomputed from atoms."""
    tgds = list(tgds)
    schema = Schema()
    for tgd in tgds:
        for atom in tgd.body + tgd.head:
            schema.add(atom.predicate)
    graph = DependencyGraph(schema=schema)
    for tgd in tgds:
        add_tgd_edges(graph, tgd)
    return graph


def reference_support_graph(tgds: Iterable[TGD]) -> DependencyGraph:
    """``dg(Σ)`` plus a normal edge from every body position to every head
    position of each empty-frontier TGD, built from scratch."""
    tgds = list(tgds)
    graph = reference_dependency_graph(tgds)
    for tgd in tgds:
        if tgd.frontier():
            continue
        targets = [node for atom in tgd.head for node in graph.add_predicate(atom.predicate)]
        for atom in tgd.body:
            for source in graph.add_predicate(atom.predicate):
                for target in targets:
                    graph.link(source, target, False)
    return graph


def kosaraju_sccs(n_nodes: int, edges: Iterable[Tuple[int, int]]) -> Set[FrozenSet[int]]:
    """The strongly connected components of the graph on ``range(n_nodes)``,
    by Kosaraju's two passes: an SCC oracle that shares nothing with the
    Tarjan walk of ``repro.graph.tarjan``."""
    forward: List[List[int]] = [[] for _ in range(n_nodes)]
    reverse: List[List[int]] = [[] for _ in range(n_nodes)]
    for source, target in edges:
        forward[source].append(target)
        reverse[target].append(source)
    finished: List[int] = []  # pass 1: nodes by DFS finishing time
    seen = [False] * n_nodes
    for root in range(n_nodes):
        stack = [] if seen[root] else [(root, iter(forward[root]))]
        seen[root] = True
        while stack:
            node, successors = stack[-1]
            fresh = next((n for n in successors if not seen[n]), None)
            if fresh is None:
                finished.append(stack.pop()[0])
            else:
                seen[fresh] = True
                stack.append((fresh, iter(forward[fresh])))
    components: Set[FrozenSet[int]] = set()
    placed = [False] * n_nodes
    for root in reversed(finished):  # pass 2: reverse reachability, latest finisher first
        members = [] if placed[root] else [root]
        placed[root] = True
        for node in members:
            for predecessor in reverse[node]:
                if not placed[predecessor]:
                    placed[predecessor] = True
                    members.append(predecessor)
        if members:
            components.add(frozenset(members))
    return components
