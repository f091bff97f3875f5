"""Unit tests for the chase engines (semi-oblivious, oblivious, restricted)."""

import pytest
from hypothesis import given, settings

from repro.chase.engine import SemiObliviousChase, chase, satisfies
from repro.chase.result import ChaseLimits
from repro.core.parser import parse_database, parse_rules
from repro.exceptions import ChaseLimitExceeded
from tests.helpers import databases, linear_tgd_sets


class TestSemiObliviousChase:
    def test_terminating_chain(self):
        result = chase(parse_database("R(a,b)."), parse_rules("R(x,y) -> S(y,x)"))
        assert result.terminated
        assert len(result.instance) == 2
        assert result.stop_reason == "fixpoint"

    def test_non_terminating_is_cut_by_atom_budget(self):
        result = chase(
            parse_database("R(a,b)."),
            parse_rules("R(x,y) -> R(y,z)"),
            limits=ChaseLimits(max_atoms=30),
        )
        assert not result.terminated
        assert result.stop_reason == "max_atoms"
        assert len(result.instance) > 30

    def test_round_budget(self):
        result = chase(
            parse_database("R(a,b)."),
            parse_rules("R(x,y) -> R(y,z)"),
            limits=ChaseLimits(max_atoms=None, max_rounds=5),
        )
        assert not result.terminated
        assert result.stop_reason == "max_rounds"
        assert result.rounds == 5

    def test_on_limit_raise(self):
        with pytest.raises(ChaseLimitExceeded):
            SemiObliviousChase(limits=ChaseLimits(max_atoms=10), on_limit="raise").run(
                parse_database("R(a,b)."), parse_rules("R(x,y) -> R(y,z)")
            )

    def test_fires_once_per_frontier_witness(self):
        # Two R-atoms share the frontier witness y=b, so only one S-atom is created.
        result = chase(parse_database("R(a,b).\nR(c,b)."), parse_rules("R(x,y) -> S(y,z)"))
        assert result.terminated
        s_atoms = [atom for atom in result.instance if atom.predicate.name == "S"]
        assert len(s_atoms) == 1

    def test_database_is_contained_in_result(self):
        database = parse_database("R(a,b).\nS(b,c).")
        result = chase(database, parse_rules("R(x,y) -> T(y)"))
        assert database.atoms() <= result.instance.atoms()

    def test_result_satisfies_rules_when_terminated(self):
        rules = parse_rules("R(x,y) -> S(y,z)\nS(x,y) -> T(x)")
        result = chase(parse_database("R(a,b).\nR(b,c)."), rules)
        assert result.terminated
        assert satisfies(result.instance, rules)

    def test_multi_head_rule(self):
        result = chase(parse_database("R(a,b)."), parse_rules("R(x,y) -> S(y,z), T(z,x)"))
        assert result.terminated
        predicates = {atom.predicate.name for atom in result.instance}
        assert predicates == {"R", "S", "T"}

    def test_multi_body_rule(self):
        rules = parse_rules("R(x,y), S(y,w) -> T(x,w)")
        result = chase(parse_database("R(a,b).\nS(b,c)."), rules)
        assert result.terminated
        assert any(atom.predicate.name == "T" for atom in result.instance)

    def test_empty_rule_set(self):
        database = parse_database("R(a,b).")
        result = chase(database, parse_rules(""))
        assert result.terminated
        assert result.instance.atoms() == database.atoms()


class TestVariantDifferences:
    def test_example_1_1_restricted_vs_semi_oblivious(self, example_1_1):
        database, rules = example_1_1
        restricted = chase(database, rules, variant="restricted")
        assert restricted.terminated
        assert len(restricted.instance) == 1  # D already satisfies the TGD

        semi = chase(database, rules, variant="semi-oblivious", limits=ChaseLimits(max_atoms=40))
        assert not semi.terminated  # builds an infinite chain

    def test_oblivious_is_at_least_as_large_as_semi_oblivious(self):
        database = parse_database("R(a,b).\nR(c,b).")
        rules = parse_rules("R(x,y) -> S(y,z)")
        semi = chase(database, rules, variant="semi-oblivious")
        oblivious = chase(database, rules, variant="oblivious")
        assert semi.terminated and oblivious.terminated
        assert len(oblivious.instance) >= len(semi.instance)
        assert len(oblivious.instance) == 4  # one S-atom per R-atom
        assert len(semi.instance) == 3  # one S-atom per frontier witness

    def test_semi_oblivious_infinite_while_oblivious_also_infinite(self):
        database = parse_database("R(a,b).")
        rules = parse_rules("R(x,y) -> R(y,z)")
        for variant in ("semi-oblivious", "oblivious"):
            result = chase(database, rules, variant=variant, limits=ChaseLimits(max_atoms=25))
            assert not result.terminated

    def test_restricted_smaller_than_semi_oblivious_on_satisfied_heads(self):
        database = parse_database("R(a,b).\nS(b,c).")
        rules = parse_rules("R(x,y) -> S(y,z)")
        restricted = chase(database, rules, variant="restricted")
        semi = chase(database, rules, variant="semi-oblivious")
        assert restricted.terminated and semi.terminated
        assert len(restricted.instance) < len(semi.instance)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            chase(parse_database("R(a,b)."), parse_rules("R(x,y) -> S(y,x)"), variant="standard?")


class TestChaseProperties:
    @given(databases(max_size=4), linear_tgd_sets(simple=True, max_size=3))
    @settings(max_examples=25)
    def test_terminated_chase_satisfies_rules_and_contains_database(self, database, tgds):
        result = chase(database, tgds, limits=ChaseLimits(max_atoms=300, max_rounds=60))
        assert database.atoms() <= result.instance.atoms()
        if result.terminated:
            assert satisfies(result.instance, tgds)

    @given(databases(max_size=4), linear_tgd_sets(simple=True, max_size=3))
    @settings(max_examples=25)
    def test_restricted_never_larger_than_semi_oblivious(self, database, tgds):
        semi = chase(database, tgds, limits=ChaseLimits(max_atoms=300, max_rounds=60))
        restricted = chase(
            database, tgds, variant="restricted", limits=ChaseLimits(max_atoms=300, max_rounds=60)
        )
        if semi.terminated and restricted.terminated:
            assert len(restricted.instance) <= len(semi.instance)
