"""Unit tests for repro.graph.reachability (Supports and the extensional predicates)."""

from repro.core.parser import parse_database, parse_rules
from repro.core.predicates import Predicate
from repro.graph.dependency_graph import build_dependency_graph
from repro.graph.reachability import (
    extensional_predicates,
    supports,
)
from repro.graph.tarjan import find_special_sccs
from repro.storage.database import RelationalDatabase

R = Predicate("R", 2)
S = Predicate("S", 2)


class TestExtensionalPredicates:
    def test_from_core_database(self):
        database = parse_database("R(a,b).\nS(b,c).")
        assert extensional_predicates(database) == {R, S}

    def test_from_storage_catalog(self):
        store = RelationalDatabase()
        store.create_relation(R)
        store.create_relation(S)
        store.insert("R", ("a", "b"))
        assert extensional_predicates(store) == {R}


class TestSupports:
    def _cycle_setup(self):
        # S/T form a bad cycle; R feeds S; U is unrelated.
        rules = parse_rules("R(x,y) -> S(y,z)\nS(x,y) -> T(y,z)\nT(x,y) -> S(x,y)\nU(x,y) -> U(y,x)")
        graph = build_dependency_graph(rules)
        special = find_special_sccs(graph)
        assert special
        representatives = [scc.representative() for scc in special]
        return rules, graph, representatives

    def test_supported_when_database_reaches_the_cycle(self):
        _, graph, representatives = self._cycle_setup()
        assert supports(parse_database("R(a,b)."), representatives, graph)
        assert supports(parse_database("S(a,b)."), representatives, graph)

    def test_not_supported_when_database_is_disconnected(self):
        _, graph, representatives = self._cycle_setup()
        assert not supports(parse_database("U(a,b)."), representatives, graph)

    def test_empty_database_supports_nothing(self):
        _, graph, representatives = self._cycle_setup()
        assert not supports(parse_database(""), representatives, graph)

    def test_empty_position_set(self):
        _, graph, _ = self._cycle_setup()
        assert not supports(parse_database("R(a,b)."), [], graph)

    def test_reachability_is_predicate_level(self):
        # The edge reaches (T,1) only, but the cycle node is (T,2): predicate-level
        # reachability still counts, as in the paper's definition.
        rules = parse_rules("R(x,y) -> T(y,w)\nT(x,y) -> V(x,z)\nV(x,y) -> T(y,x)")
        graph = build_dependency_graph(rules)
        special = find_special_sccs(graph)
        assert special
        representatives = [scc.representative() for scc in special]
        assert supports(parse_database("R(a,b)."), representatives, graph)
