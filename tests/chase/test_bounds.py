"""Unit tests for repro.chase.bounds."""

import pytest

from repro.chase.bounds import (
    bell_number,
    chase_size_bound,
    static_simplification_size_bound,
)
from repro.chase.engine import chase
from repro.core.parser import parse_database, parse_rules
from repro.exceptions import NotLinearError


class TestBellNumbers:
    def test_known_values(self):
        assert [bell_number(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bell_number(-1)


class TestStaticSimplificationBound:
    def test_matches_exact_size_on_small_rules(self):
        from repro.simplification.static import static_simplification

        rules = parse_rules("P(x,y,x) -> P(y,z,y)\nR(x,y) -> R(y,z)")
        bound = static_simplification_size_bound(rules)
        assert bound >= len(static_simplification(rules))

    def test_requires_linear(self):
        with pytest.raises(NotLinearError):
            static_simplification_size_bound(parse_rules("R(x,y), S(y,z) -> T(x,z)"))


class TestChaseSizeBound:
    def test_is_an_upper_bound_on_terminating_chases(self):
        database = parse_database("R(a,b).\nR(b,c).")
        rules = parse_rules("R(x,y) -> S(y,z)\nS(x,y) -> T(x)")
        bound = chase_size_bound(database, rules)
        result = chase(database, rules)
        assert result.terminated
        assert len(result.instance) <= bound.value or bound.saturated

    def test_empty_rule_set(self):
        database = parse_database("R(a,b).")
        bound = chase_size_bound(database, parse_rules(""))
        assert bound.value >= len(database)
        assert not bound.saturated

    def test_saturation_flag(self):
        database = parse_database("R(a,b,c,d,e).")
        rules = parse_rules("R(x,y,z,w,v) -> R(y,z,w,v,u)")
        bound = chase_size_bound(database, rules, cap=1000)
        assert bound.value <= 1000
        assert bound.saturated
        assert not bound.usable_threshold()

    def test_larger_rule_sets_do_not_shrink_the_bound(self):
        database = parse_database("R(a,b).")
        small = chase_size_bound(database, parse_rules("R(x,y) -> S(y,z)"))
        large = chase_size_bound(
            database, parse_rules("R(x,y) -> S(y,z)\nS(x,y) -> T(y,z)\nT(x,y) -> U(y,z)")
        )
        assert large.value >= small.value or large.saturated
