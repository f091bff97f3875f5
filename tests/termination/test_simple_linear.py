"""Unit tests for IsChaseFinite[SL] (Algorithm 1)."""

import pytest

from repro.core.instances import induced_database
from repro.core.parser import parse_database, parse_rules
from repro.core.serializer import serialize_rules
from repro.exceptions import NotSimpleLinearError
from repro.termination.simple_linear import is_chase_finite_sl


class TestIsChaseFiniteSL:
    def test_finite_acyclic_rules(self):
        report = is_chase_finite_sl(parse_database("R(a,b)."), parse_rules("R(x,y) -> S(y,z)"))
        assert report.finite
        assert report.algorithm == "IsChaseFinite[SL]"

    def test_infinite_cycle(self):
        report = is_chase_finite_sl(parse_database("R(a,b)."), parse_rules("R(x,y) -> R(y,z)"))
        assert not report.finite

    def test_example_1_1_is_infinite(self, example_1_1):
        database, rules = example_1_1
        assert not is_chase_finite_sl(database, rules).finite

    def test_unsupported_cycle_is_finite(self):
        rules = parse_rules("S(x,y) -> S(y,z)\nR(x,y) -> T(y,x)")
        assert is_chase_finite_sl(parse_database("R(a,b)."), rules).finite
        assert not is_chase_finite_sl(parse_database("S(a,b)."), rules).finite

    def test_empty_database(self):
        rules = parse_rules("R(x,y) -> R(y,z)")
        assert is_chase_finite_sl(parse_database(""), rules).finite

    def test_normal_cycles_do_not_matter(self):
        rules = parse_rules("R(x,y) -> S(y,x)\nS(x,y) -> R(y,x)")
        assert is_chase_finite_sl(parse_database("R(a,b)."), rules).finite

    def test_rejects_non_simple_linear(self):
        with pytest.raises(NotSimpleLinearError):
            is_chase_finite_sl(parse_database("R(a,a)."), parse_rules("R(x,x) -> S(x,z)"))

    def test_accepts_rule_text_and_measures_parse_time(self):
        rules = parse_rules("R(x,y) -> R(y,z)")
        report = is_chase_finite_sl(parse_database("R(a,b)."), serialize_rules(rules))
        assert not report.finite
        assert report.timings.t_parse > 0

    def test_statistics_are_populated(self):
        report = is_chase_finite_sl(parse_database("R(a,b)."), parse_rules("R(x,y) -> R(y,z)"))
        stats = report.statistics
        assert stats["n_rules"] == 1
        assert stats["n_special_sccs"] == 1
        assert stats["supported"] == 1
        assert stats["n_edges"] >= 2

    def test_induced_database_supports_everything(self):
        rules = parse_rules("S(x,y) -> S(y,z)\nR(x,y) -> T(y,x)")
        # With D_Sigma every predicate is populated, so the S-cycle is supported.
        assert not is_chase_finite_sl(induced_database(rules), rules).finite

    def test_empty_frontier_rules_are_handled(self):
        # R seeds S only through an empty-frontier rule; the S/T cycle is then driven.
        rules = parse_rules("R(x) -> S(z)\nS(y) -> T(y,w)\nT(u,v) -> S(v)")
        assert not is_chase_finite_sl(parse_database("R(a)."), rules).finite
        # Without any seed for the cycle the chase stays finite.
        rules2 = parse_rules("S(y) -> T(y,w)\nT(u,v) -> S(v)\nR(x) -> U(x)")
        assert is_chase_finite_sl(parse_database("R(a)."), rules2).finite

    def test_boolean_protocol(self):
        report = is_chase_finite_sl(parse_database("R(a,b)."), parse_rules("R(x,y) -> S(y,z)"))
        assert bool(report) is True
