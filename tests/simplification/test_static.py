"""Unit tests for static simplification (Definition 3.5)."""

import pytest
from hypothesis import given, settings

from repro.chase.bounds import bell_number, static_simplification_size_bound
from repro.core.parser import parse_rules, parse_tgd
from repro.exceptions import NotLinearError
from repro.simplification.static import static_simplification
from tests.helpers import linear_tgd_sets
from tests.simplification.reference import identity_specialization, simplify_tgd_with


class TestSimplifyTGD:
    def test_simple_linear_identity_simplification(self):
        tgd = parse_tgd("R(x,y) -> S(y,z)")
        simplified = simplify_tgd_with(tgd, identity_specialization(tgd.body[0].terms))
        assert simplified.body[0].predicate.name == "R__1_2"
        assert simplified.head[0].predicate.name == "S__1_2"
        assert simplified.is_simple_linear()

    def test_the_reference_rejects_a_non_linear_tgd(self):
        tgd = parse_tgd("R(x,y), S(y,z) -> T(x,z)")
        with pytest.raises(NotLinearError):
            simplify_tgd_with(tgd, identity_specialization(tgd.body[0].terms))

    def test_collapsing_specialization(self):
        specializations = static_simplification(parse_rules("R(x,y) -> S(x,y)"))
        names = {(s.body[0].predicate.name, s.head[0].predicate.name) for s in specializations}
        assert names == {("R__1_2", "S__1_2"), ("R__1_1", "S__1_1")}

    def test_head_repetition_is_simplified(self):
        tgd = parse_tgd("R(x,y) -> S(x,x)")
        simplified = simplify_tgd_with(tgd, identity_specialization(tgd.body[0].terms))
        assert simplified.head[0].predicate.name == "S__1_1"
        assert simplified.head[0].arity == 1

    def test_count_per_tgd_is_bell_of_distinct_body_variables(self):
        assert len(static_simplification(parse_rules("P(x,y,z) -> Q(x,y)"))) == bell_number(3)
        assert len(static_simplification(parse_rules("P(x,y,x) -> Q(x,y)"))) == bell_number(2)


class TestStaticSimplification:
    def test_example_from_exploration(self):
        rules = parse_rules("P(x,y,x) -> P(y,z,y)")
        simplified = static_simplification(rules)
        assert len(simplified) == 2
        assert simplified.is_simple_linear()

    def test_results_are_always_simple_linear(self):
        rules = parse_rules("R(x,x) -> S(x,z)\nS(x,y) -> R(y,y)")
        assert static_simplification(rules).is_simple_linear()

    @given(linear_tgd_sets(simple=False, max_size=3))
    @settings(max_examples=20)
    def test_size_matches_bound_and_class(self, tgds):
        simplified = static_simplification(tgds)
        assert simplified.is_simple_linear()
        assert len(simplified) <= static_simplification_size_bound(tgds)

    @given(linear_tgd_sets(simple=True, max_size=3))
    @settings(max_examples=20)
    def test_simple_linear_rules_keep_one_simplification_per_specialization(self, tgds):
        simplified = static_simplification(tgds)
        # For simple-linear rules every body specialization is compatible, so the
        # count is at most the sum of Bell numbers and at least the rule count.
        assert len(simplified) >= 1
        assert len(simplified) <= static_simplification_size_bound(tgds)
