"""Serializer unit tests and parse/serialize round-trip properties."""

from hypothesis import given

from repro.core.atoms import Atom
from repro.core.parser import parse_database, parse_rules
from repro.core.predicates import Predicate
from repro.core.serializer import (
    dump_database,
    dump_rules,
    serialize_atom,
    serialize_database,
    serialize_fact,
    serialize_rules,
    serialize_tgd,
)
from repro.core.terms import Constant, Variable
from tests.helpers import databases, linear_tgd_sets

R = Predicate("R", 2)


class TestSerializeBasics:
    def test_atom_in_rule(self):
        atom = Atom(R, (Variable("x"), Variable("y")))
        assert serialize_atom(atom, in_rule=True) == "R(x,y)"

    def test_fact(self):
        atom = Atom(R, (Constant("a"), Constant("b")))
        assert serialize_fact(atom) == "R(a,b)."

    def test_constant_needing_quotes(self):
        atom = Atom(R, (Constant("a b"), Constant("c,d")))
        text = serialize_fact(atom)
        assert '"a b"' in text and '"c,d"' in text
        assert parse_database(text).atoms() == {atom}

    def test_tgd(self):
        rules = parse_rules("R(x,y) -> S(y,z)")
        assert serialize_tgd(tuple(rules)[0]) == "R(x,y) -> S(y,z)"

    def test_dump_and_load(self, tmp_path):
        rules = parse_rules("R(x,y) -> S(y,z)\nS(x,y) -> T(x)")
        database = parse_database("R(a,b).")
        rule_path = tmp_path / "rules.txt"
        fact_path = tmp_path / "facts.txt"
        dump_rules(rules, rule_path)
        dump_database(database, fact_path)
        assert parse_rules(rule_path.read_text()) == rules
        assert parse_database(fact_path.read_text()) == database


class TestRoundTripProperties:
    @given(linear_tgd_sets(simple=False, min_size=1, max_size=5))
    def test_rules_round_trip(self, tgds):
        text = serialize_rules(tgds)
        assert parse_rules(text) == tgds

    @given(linear_tgd_sets(simple=True, min_size=1, max_size=5))
    def test_simple_rules_round_trip_preserves_class(self, tgds):
        parsed = parse_rules(serialize_rules(tgds))
        assert parsed.is_simple_linear()
        assert parsed == tgds

    @given(databases(min_size=1, max_size=6))
    def test_databases_round_trip(self, database):
        text = serialize_database(database)
        assert parse_database(text) == database
