"""Dependency graphs of TGD sets (Section 3 and Section 5.1).

The dependency graph ``dg(Σ)`` of a set of TGDs is a directed multigraph
whose nodes are the predicate positions of ``sch(Σ)``.  For every TGD
``σ``, every frontier variable ``x`` and every body position ``π`` of ``x``:

* a **normal** edge goes from ``π`` to every head position of ``x``;
* a **special** edge goes from ``π`` to every head position of every
  existentially quantified variable of ``σ``.

Implementation notes (mirroring Section 5.1 of the paper):

* nodes are numbered ``0, 1, 2, …`` as they are inserted and the graph is
  stored as integer-keyed adjacency with *both* forward and reverse edge
  maps — the reverse maps are what make the ``Supports`` check a cheap
  reverse traversal.  :class:`~repro.core.predicates.Position` objects exist
  only at the API edge (``nodes()``, ``edges()``, ``successors()`` …); the
  builders below, Tarjan and the reachability walks work on the numbers;
* an index from predicates to the node numbers of their positions gives O(1)
  access while streaming over the TGDs, so construction is linear in the size
  of the rule set;
* parallel edges between the same pair of positions are collapsed into a
  single edge that remembers whether *any* of the parallel edges was special
  (this is sufficient for every algorithm in the paper and keeps the graph
  small — the appendix of the paper makes the same observation when
  discussing edge counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.predicates import Position, Predicate, Schema
from ..core.terms import Term
from ..core.tgds import TGD, TGDSet


@dataclass(frozen=True)
class Edge:
    """A directed edge of the dependency graph."""

    source: Position
    target: Position
    special: bool

    def __str__(self) -> str:
        marker = "=*=>" if self.special else "--->"
        return f"{self.source} {marker} {self.target}"


class DependencyGraph:
    """The dependency graph ``dg(Σ)`` with forward and reverse adjacency."""

    def __init__(self, schema: Optional[Schema] = None):
        #: Per predicate, the node number of each position (-1: not a node).
        self._slots: Dict[Predicate, List[int]] = {}
        #: Per node, its predicate and 1-based index.
        self._owners: List[Predicate] = []
        self._indexes: List[int] = []
        #: Per node, ``{neighbour: special}`` with parallel edges OR-ed.
        self.forward: List[Dict[int, bool]] = []
        self.reverse: List[Dict[int, bool]] = []
        self._edge_count = 0
        self._special_edge_count = 0
        if schema is not None:
            for predicate in schema:
                self.add_predicate(predicate)

    def copy(self) -> "DependencyGraph":
        """Return an independent graph with the same nodes, numbers and edges."""
        clone = DependencyGraph()
        clone._slots = {predicate: list(slots) for predicate, slots in self._slots.items()}
        clone._owners = list(self._owners)
        clone._indexes = list(self._indexes)
        clone.forward = [dict(edges) for edges in self.forward]
        clone.reverse = [dict(edges) for edges in self.reverse]
        clone._edge_count = self._edge_count
        clone._special_edge_count = self._special_edge_count
        return clone

    # ------------------------------------------------------------------ #
    # Construction

    def _new_node(self, predicate: Predicate, index: int) -> int:
        node = len(self._owners)
        self._owners.append(predicate)
        self._indexes.append(index)
        self.forward.append({})
        self.reverse.append({})
        return node

    def add_predicate(self, predicate: Predicate) -> List[int]:
        """Ensure every position of *predicate* is a node.

        Returns the node numbers of positions ``1 … arity``, in that order
        (the graph's own list: read it, do not change it).
        """
        slots = self._slots.get(predicate)
        if slots is None:
            slots = self._slots[predicate] = [
                self._new_node(predicate, index) for index in range(1, predicate.arity + 1)
            ]
        elif -1 in slots:
            for offset, node in enumerate(slots):
                if node < 0:
                    slots[offset] = self._new_node(predicate, offset + 1)
        return slots

    def add_node(self, position: Position) -> int:
        """Ensure *position* is a node of the graph; return its number."""
        predicate = position.predicate
        slots = self._slots.get(predicate)
        if slots is None:
            slots = self._slots[predicate] = [-1] * predicate.arity
        node = slots[position.index - 1]
        if node < 0:
            node = slots[position.index - 1] = self._new_node(predicate, position.index)
        return node

    def link(self, source: int, target: int, special: bool) -> None:
        """Add an edge between two node numbers (special wins over normal)."""
        edges = self.forward[source]
        known = edges.get(target)
        if known is None:
            self._edge_count += 1
        elif known or not special:
            return
        edges[target] = special
        self.reverse[target][source] = special
        if special:
            self._special_edge_count += 1

    def add_edge(self, source: Position, target: Position, special: bool) -> None:
        """Add an edge, collapsing parallel edges (special wins over normal)."""
        self.link(self.add_node(source), self.add_node(target), bool(special))

    # ------------------------------------------------------------------ #
    # Inspection

    def node_of(self, position: Position) -> Optional[int]:
        """Return the number of *position*, or ``None`` when it is not a node."""
        slots = self._slots.get(position.predicate)
        if slots is None or slots[position.index - 1] < 0:
            return None
        return slots[position.index - 1]

    def position(self, node: int) -> Position:
        """Return the position numbered *node*."""
        return Position(self._owners[node], self._indexes[node])

    def nodes_of_predicates(self, predicates: Iterable[Predicate]) -> List[int]:
        """Return the numbers of the nodes whose predicate is in *predicates*."""
        result: List[int] = []
        for predicate in predicates:
            result.extend(node for node in self._slots.get(predicate, ()) if node >= 0)
        return result

    def _sorted_nodes(self) -> List[int]:
        """Node numbers in :class:`Position` order (name, arity, index)."""
        result: List[int] = []
        for predicate in sorted(self._slots, key=lambda p: (p.name, p.arity)):
            result.extend(node for node in self._slots[predicate] if node >= 0)
        return result

    def __contains__(self, position: Position) -> bool:
        return self.node_of(position) is not None

    def __len__(self) -> int:
        return len(self._owners)

    def nodes(self) -> Tuple[Position, ...]:
        """Return every node, sorted for reproducibility."""
        return tuple(self.position(node) for node in self._sorted_nodes())

    def edges(self) -> List[Edge]:
        """Return every (collapsed) edge of the graph, sorted by source then target."""
        order = self._sorted_nodes()
        rank = {node: place for place, node in enumerate(order)}
        positions = {node: self.position(node) for node in order}
        result = []
        for node in order:
            edges = self.forward[node]
            for target in sorted(edges, key=rank.__getitem__):
                result.append(Edge(positions[node], positions[target], edges[target]))
        return result

    def edge_count(self) -> int:
        """Return the number of collapsed edges."""
        return self._edge_count

    def special_edge_count(self) -> int:
        """Return the number of collapsed edges that are special."""
        return self._special_edge_count

    def _neighbours(
        self, adjacency: Sequence[Dict[int, bool]], position: Position
    ) -> Iterator[Tuple[Position, bool]]:
        node = self.node_of(position)
        if node is not None:
            for neighbour, special in adjacency[node].items():
                yield self.position(neighbour), special

    def successors(self, position: Position) -> Iterator[Tuple[Position, bool]]:
        """Yield ``(target, special)`` pairs for the outgoing edges of *position*."""
        return self._neighbours(self.forward, position)

    def predecessors(self, position: Position) -> Iterator[Tuple[Position, bool]]:
        """Yield ``(source, special)`` pairs for the incoming edges of *position*."""
        return self._neighbours(self.reverse, position)

    def has_edge(self, source: Position, target: Position) -> bool:
        """Return ``True`` when the graph has an edge from *source* to *target*."""
        start, end = self.node_of(source), self.node_of(target)
        return start is not None and end is not None and end in self.forward[start]

    def is_special_edge(self, source: Position, target: Position) -> bool:
        """Return ``True`` when the (collapsed) edge is special."""
        start, end = self.node_of(source), self.node_of(target)
        return start is not None and end is not None and self.forward[start].get(end, False)

    def predicates(self) -> Set[Predicate]:
        """Return the predicates mentioned by the nodes."""
        return set(self._owners)

    def positions_of_predicate(self, predicate: Predicate) -> List[Position]:
        """Return the nodes whose predicate is *predicate*."""
        return [self.position(node) for node in self.nodes_of_predicates([predicate])]

    def to_networkx(self) -> Any:
        """Export to a ``networkx.DiGraph`` (edge attribute ``special``); optional dependency."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self.nodes())
        for edge in self.edges():
            graph.add_edge(edge.source, edge.target, special=edge.special)
        return graph


def build_support_graph(tgds: TGDSet) -> DependencyGraph:
    """Build the dependency graph augmented for support/reachability checks.

    The paper assumes TGDs with a non-empty frontier (Section 3), in which
    case ``dg(Σ)`` itself is the right graph for the ``Supports`` check.  A
    TGD with an *empty* frontier contributes no edges to ``dg(Σ)`` even
    though it does propagate derivability (it can fire once and seed atoms
    of its head predicates).  For the support check only — never for the
    special-SCC search, because an empty-frontier rule fires at most once and
    therefore cannot drive an infinite cycle — this builder adds a plain
    normal edge from every body position to every head position of each
    empty-frontier TGD, so that predicate-level reachability matches actual
    derivability.
    """
    graph = build_dependency_graph(tgds)
    for tgd in tgds:
        if not tgd.has_empty_frontier():
            continue
        targets = [node for atom in tgd.head for node in graph.add_predicate(atom.predicate)]
        for atom in tgd.body:
            for source in graph.add_predicate(atom.predicate):
                for target in targets:
                    graph.link(source, target, False)
    return graph


def _add_tgd_edges(graph: DependencyGraph, tgd: TGD) -> None:
    """Add the nodes and dependency edges contributed by a single TGD to *graph*.

    One walk over the head collects, per frontier variable, the nodes it
    occurs at (normal targets) and the nodes of the existential variables
    (special targets); one walk over the body links every frontier
    occurrence to both.
    """
    frontier = tgd.frontier()
    normal_targets: Dict[Term, List[int]] = {}
    special_targets: List[int] = []
    for atom in tgd.head:
        for node, term in zip(graph.add_predicate(atom.predicate), atom.terms):
            if term in frontier:
                normal_targets.setdefault(term, []).append(node)
            else:
                special_targets.append(node)
    link = graph.link
    for atom in tgd.body:
        for source, term in zip(graph.add_predicate(atom.predicate), atom.terms):
            targets = normal_targets.get(term)
            if targets is None:
                continue
            for target in targets:
                link(source, target, False)
            for target in special_targets:
                link(source, target, True)


def build_dependency_graph(tgds: TGDSet) -> DependencyGraph:
    """``BuildDepGraph(Σ)``: construct the dependency graph of a TGD set.

    The construction streams over the TGDs once and touches each
    (frontier-variable occurrence, head occurrence) pair a constant number of
    times, i.e. it is linear in the size of the rule set, as required for the
    ``t-graph`` measurements of the paper.
    """
    return extend_dependency_graph(DependencyGraph(schema=tgds.schema()), tgds)


def extend_dependency_graph(graph: DependencyGraph, new_tgds: Iterable[TGD]) -> DependencyGraph:
    """Extend *graph* in place with the nodes and edges of *new_tgds*.

    Edges are set-collapsed and special-flag ORed exactly as in
    :func:`build_dependency_graph`, so extending ``dg(Σ)`` with ``Σ' \\ Σ``
    yields the same graph as building ``dg(Σ ∪ Σ')`` from scratch.  Returns
    *graph*.
    """
    for tgd in new_tgds:
        _add_tgd_edges(graph, tgd)
    return graph
