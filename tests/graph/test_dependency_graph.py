"""Unit tests for repro.graph.dependency_graph."""

from repro.core.parser import parse_rules
from repro.core.predicates import Position, Predicate
from repro.graph.dependency_graph import (
    DependencyGraph,
    build_dependency_graph,
    build_support_graph,
)

R = Predicate("R", 2)
S = Predicate("S", 2)


class TestGraphStructure:
    def test_nodes_cover_all_schema_positions(self):
        rules = parse_rules("R(x,y) -> S(y,z)")
        graph = build_dependency_graph(rules)
        assert len(graph) == 4
        assert Position(R, 1) in graph and Position(S, 2) in graph

    def test_normal_and_special_edges(self):
        rules = parse_rules("R(x,y) -> S(y,z)")
        graph = build_dependency_graph(rules)
        # y occurs at (R,2); head S(y,z): y at (S,1) (normal), z at (S,2) (special).
        assert graph.has_edge(Position(R, 2), Position(S, 1))
        assert not graph.is_special_edge(Position(R, 2), Position(S, 1))
        assert graph.is_special_edge(Position(R, 2), Position(S, 2))
        # x is not a frontier variable, so (R,1) has no outgoing edges.
        assert list(graph.successors(Position(R, 1))) == []

    def test_edge_counts(self):
        rules = parse_rules("R(x,y) -> S(y,z)")
        graph = build_dependency_graph(rules)
        assert graph.edge_count() == 2
        assert graph.special_edge_count() == 1

    def test_parallel_edges_collapse_special_wins(self):
        # y -> (S,1) is normal via the first rule and special via the second.
        rules = parse_rules("R(x,y) -> S(y,x)\nR(x,y) -> S(z,y)")
        graph = build_dependency_graph(rules)
        assert graph.is_special_edge(Position(R, 2), Position(S, 1))
        assert graph.edge_count() == len(graph.edges())

    def test_reverse_adjacency_matches_forward(self):
        rules = parse_rules("R(x,y) -> S(y,z)\nS(x,y) -> R(y,x)")
        graph = build_dependency_graph(rules)
        for edge in graph.edges():
            predecessors = dict(graph.predecessors(edge.target))
            assert edge.source in predecessors
            assert predecessors[edge.source] == edge.special

    def test_repeated_body_variable_contributes_all_positions(self):
        rules = parse_rules("R(x,x) -> S(x,z)")
        graph = build_dependency_graph(rules)
        assert graph.has_edge(Position(R, 1), Position(S, 1))
        assert graph.has_edge(Position(R, 2), Position(S, 1))
        assert graph.is_special_edge(Position(R, 1), Position(S, 2))

    def test_multi_head_rule_edges(self):
        rules = parse_rules("R(x,y) -> S(y,z), T(y,x)")
        graph = build_dependency_graph(rules)
        T = Predicate("T", 2)
        assert graph.has_edge(Position(R, 2), Position(T, 1))
        assert graph.has_edge(Position(R, 1), Position(T, 2))
        # The special edge for z goes from every frontier-variable body position.
        assert graph.is_special_edge(Position(R, 1), Position(S, 2))
        assert graph.is_special_edge(Position(R, 2), Position(S, 2))

    def test_construction_is_linear_in_rules(self):
        # Same rule repeated does not blow up the collapsed graph.
        rules = parse_rules("\n".join(f"R(x,y) -> S{i}(y,z)" for i in range(20)))
        graph = build_dependency_graph(rules)
        assert graph.edge_count() == 40


class TestPositionsAtTheApiEdge:
    """Nodes are numbers inside; every public answer is still in ``Position``s."""

    def _scrambled(self):
        # Inserted out of order, one position at a time, predicates interleaved.
        graph = DependencyGraph()
        T = Predicate("T", 3)
        graph.add_edge(Position(T, 3), Position(S, 1), True)
        graph.add_edge(Position(R, 2), Position(T, 3), False)
        graph.add_edge(Position(R, 2), Position(R, 1), False)
        graph.add_edge(Position(T, 3), Position(R, 1), False)
        graph.add_node(Position(T, 1))
        return graph, T

    def test_nodes_and_edges_come_back_in_position_order(self):
        graph, T = self._scrambled()
        assert graph.nodes() == (
            Position(R, 1), Position(R, 2), Position(S, 1), Position(T, 1), Position(T, 3),
        )
        assert graph.nodes() == tuple(sorted(graph.nodes()))
        assert [(str(edge.source), str(edge.target), edge.special) for edge in graph.edges()] == [
            ("(R,2)", "(R,1)", False),
            ("(R,2)", "(T,3)", False),
            ("(T,3)", "(R,1)", False),
            ("(T,3)", "(S,1)", True),
        ]
        assert len(graph) == 5 and graph.edge_count() == 4 and graph.special_edge_count() == 1

    def test_same_name_sorts_by_arity_then_index(self):
        graph = DependencyGraph()
        wide, narrow = Predicate("P", 10), Predicate("P", 2)
        for position in (Position(wide, 10), Position(wide, 9), Position(narrow, 2)):
            graph.add_node(position)
        assert graph.nodes() == (Position(narrow, 2), Position(wide, 9), Position(wide, 10))

    def test_a_position_added_alone_does_not_bring_its_siblings(self):
        graph, T = self._scrambled()
        assert Position(T, 2) not in graph and Position(S, 2) not in graph
        assert graph.positions_of_predicate(T) == [Position(T, 1), Position(T, 3)]
        assert graph.positions_of_predicate(Predicate("T", 2)) == []

    def test_queries_about_unknown_positions_are_empty(self):
        graph, T = self._scrambled()
        for stranger in (Position(T, 2), Position(Predicate("U", 1), 1)):
            assert stranger not in graph
            assert list(graph.successors(stranger)) == []
            assert list(graph.predecessors(stranger)) == []
            assert not graph.has_edge(stranger, Position(R, 1))
            assert not graph.has_edge(Position(R, 2), stranger)
            assert not graph.is_special_edge(stranger, Position(R, 1))

    def test_successors_and_predecessors_carry_the_flag(self):
        graph, T = self._scrambled()
        assert dict(graph.successors(Position(T, 3))) == {Position(S, 1): True, Position(R, 1): False}
        assert dict(graph.predecessors(Position(R, 1))) == {Position(R, 2): False, Position(T, 3): False}
        assert graph.predicates() == {R, S, T}

    def test_special_wins_whichever_parallel_edge_comes_first(self):
        for flags in ((True, False), (False, True)):
            graph = DependencyGraph()
            for special in flags:
                graph.add_edge(Position(R, 1), Position(S, 1), special)
            assert graph.is_special_edge(Position(R, 1), Position(S, 1))
            assert dict(graph.predecessors(Position(S, 1))) == {Position(R, 1): True}
            assert graph.edge_count() == 1 and graph.special_edge_count() == 1

    def test_a_copy_shares_nothing(self):
        graph, T = self._scrambled()
        clone = graph.copy()
        clone.add_edge(Position(S, 2), Position(R, 1), True)
        clone.add_edge(Position(R, 2), Position(R, 1), True)
        assert Position(S, 2) not in graph and graph.special_edge_count() == 1
        assert not graph.is_special_edge(Position(R, 2), Position(R, 1))
        assert clone.special_edge_count() == 3 and len(clone) == len(graph) + 1

    def test_the_builder_numbers_the_schema_in_sorted_order(self):
        # Tarjan visits roots by number: sorted numbering keeps its output
        # independent of the order rules were written in.
        graph = build_dependency_graph(parse_rules("S(x,y) -> R(y,z)\nR(x,y) -> A(x)"))
        assert [graph.position(node) for node in range(len(graph))] == list(graph.nodes())


class TestSupportGraph:
    def test_empty_frontier_rule_adds_reachability_edges(self):
        rules = parse_rules("R(x) -> S(z)\nS(y) -> T(y,w)")
        plain = build_dependency_graph(rules)
        support = build_support_graph(rules)
        S1 = Position(Predicate("S", 1), 1)
        R1 = Position(Predicate("R", 1), 1)
        assert not plain.has_edge(R1, S1)
        assert support.has_edge(R1, S1)
        assert not support.is_special_edge(R1, S1)

    def test_no_empty_frontier_means_same_graph(self):
        rules = parse_rules("R(x,y) -> S(y,z)")
        assert build_support_graph(rules).edge_count() == build_dependency_graph(rules).edge_count()
