"""Unit tests for repro.graph.tarjan, including a networkx cross-check."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parser import parse_rules
from repro.core.predicates import Position, Predicate
from repro.graph.dependency_graph import DependencyGraph, build_dependency_graph
from repro.graph.tarjan import find_sccs, find_special_sccs, has_special_cycle


def _graph_from_edges(n_nodes, edges):
    """Build a DependencyGraph over unary predicates v0..v{n-1} from an edge list."""
    predicates = [Predicate(f"v{i}", 1) for i in range(n_nodes)]
    positions = [Position(p, 1) for p in predicates]
    graph = DependencyGraph()
    for position in positions:
        graph.add_node(position)
    for source, target, special in edges:
        graph.add_edge(positions[source], positions[target], special)
    return graph, positions


class TestFindSCCs:
    def test_single_cycle(self):
        graph, positions = _graph_from_edges(3, [(0, 1, False), (1, 2, False), (2, 0, False)])
        sccs = find_sccs(graph)
        assert {frozenset(positions)} == set(sccs)

    def test_dag_has_singleton_components(self):
        graph, positions = _graph_from_edges(4, [(0, 1, False), (1, 2, False), (2, 3, False)])
        sccs = find_sccs(graph)
        assert len(sccs) == 4
        assert all(len(component) == 1 for component in sccs)

    def test_two_components(self):
        graph, positions = _graph_from_edges(
            5, [(0, 1, False), (1, 0, False), (2, 3, False), (3, 4, False), (4, 2, False)]
        )
        sizes = sorted(len(component) for component in find_sccs(graph))
        assert sizes == [2, 3]

    def test_deep_chain_does_not_hit_recursion_limit(self):
        edges = [(i, i + 1, False) for i in range(3000)]
        graph, _ = _graph_from_edges(3001, edges)
        assert len(find_sccs(graph)) == 3001

    @given(st.integers(min_value=1, max_value=12), st.data())
    @settings(max_examples=30)
    def test_agrees_with_networkx(self, n_nodes, data):
        import networkx as nx

        n_edges = data.draw(st.integers(min_value=0, max_value=3 * n_nodes))
        edges = [
            (
                data.draw(st.integers(min_value=0, max_value=n_nodes - 1)),
                data.draw(st.integers(min_value=0, max_value=n_nodes - 1)),
                data.draw(st.booleans()),
            )
            for _ in range(n_edges)
        ]
        graph, positions = _graph_from_edges(n_nodes, edges)
        ours = {frozenset(component) for component in find_sccs(graph)}
        reference_graph = nx.DiGraph()
        reference_graph.add_nodes_from(positions)
        for source, target, _special in edges:
            reference_graph.add_edge(positions[source], positions[target])
        reference = {frozenset(component) for component in nx.strongly_connected_components(reference_graph)}
        assert ours == reference


class TestSpecialSCCs:
    def test_special_cycle_detected(self):
        graph, positions = _graph_from_edges(2, [(0, 1, True), (1, 0, False)])
        special = find_special_sccs(graph)
        assert len(special) == 1
        assert special[0].nodes == frozenset(positions)

    def test_normal_cycle_is_not_special(self):
        graph, _ = _graph_from_edges(2, [(0, 1, False), (1, 0, False)])
        assert find_special_sccs(graph) == []
        assert not has_special_cycle(graph)

    def test_special_edge_outside_any_cycle_is_ignored(self):
        graph, _ = _graph_from_edges(3, [(0, 1, True), (1, 2, False)])
        assert find_special_sccs(graph) == []

    def test_special_self_loop(self):
        graph, positions = _graph_from_edges(1, [(0, 0, True)])
        special = find_special_sccs(graph)
        assert len(special) == 1
        assert special[0].representative() == positions[0]

    def test_normal_self_loop_not_special(self):
        graph, _ = _graph_from_edges(1, [(0, 0, False)])
        assert find_special_sccs(graph) == []

    def test_methods_agree_with_each_other_and_with_networkx(self):
        import networkx as nx

        rng = random.Random(5)
        for _ in range(60):
            n_nodes = rng.randint(1, 10)
            edges = [
                (rng.randrange(n_nodes), rng.randrange(n_nodes), rng.random() < 0.4)
                for _ in range(rng.randint(0, 3 * n_nodes))
            ]
            graph, positions = _graph_from_edges(n_nodes, edges)
            edge_scan = {scc.nodes for scc in find_special_sccs(graph, method="edge-scan")}
            token = {scc.nodes for scc in find_special_sccs(graph, method="token")}
            # The definition, on an independent SCC implementation: a component
            # is special iff some special edge has both ends inside it.
            reference = nx.DiGraph()
            reference.add_nodes_from(range(n_nodes))
            reference.add_edges_from((source, target) for source, target, _ in edges)
            declared = {
                frozenset(positions[node] for node in component)
                for component in nx.strongly_connected_components(reference)
                if any(s in component and t in component for s, t, special in edges if special)
            }
            assert edge_scan == token == declared
            assert has_special_cycle(graph) == bool(declared)

    def test_special_edge_into_a_closed_component_leaves_no_token_behind(self):
        # 0 -> 1 <-> 2 with the special edge 0 => 1 leaving {0}: its token is
        # popped with {0}, whose membership check must discard it; the special
        # edge 3 => 3 closes a component of its own.
        graph, positions = _graph_from_edges(
            4, [(0, 1, True), (1, 2, False), (2, 1, False), (0, 3, False), (3, 3, True)]
        )
        assert {scc.nodes for scc in find_special_sccs(graph)} == {frozenset({positions[3]})}

    def test_five_thousand_node_chain_with_a_special_back_edge(self):
        # No recursion, and no per-node copy of the successor lists.
        size = 5000
        chain = [(i, i + 1, False) for i in range(size - 1)]
        graph, positions = _graph_from_edges(size, chain)
        assert find_special_sccs(graph) == [] and len(find_sccs(graph)) == size
        graph.add_edge(positions[-1], positions[0], True)
        (cycle,) = find_special_sccs(graph, method="token")
        assert cycle.nodes == frozenset(positions) and cycle.special
        assert cycle.representative() == min(positions)

    def test_unknown_method_rejected(self):
        graph, _ = _graph_from_edges(1, [])
        with pytest.raises(ValueError):
            find_special_sccs(graph, method="bogus")

    def test_on_rule_graphs(self):
        finite = build_dependency_graph(parse_rules("R(x,y) -> S(y,z)\nS(x,y) -> T(x)"))
        infinite = build_dependency_graph(parse_rules("R(x,y) -> R(y,z)"))
        assert not has_special_cycle(finite)
        assert has_special_cycle(infinite)
