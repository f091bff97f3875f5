"""Unit tests for the shape-transfer plans, on hand-worked examples."""

from repro.core.parser import parse_rules, parse_tgd
from repro.core.terms import Variable
from repro.graph import build_dependency_graph
from repro.simplification import Shape, dynamic_simplification
from repro.simplification.plans import TransferPlan, plans_by_body

x, y, z = Variable("x"), Variable("y"), Variable("z")


class TestTransfer:
    """``R(x,y,x) -> S(y,z,x)``: the body repeats ``x`` at positions 1 and 3."""

    PLAN = TransferPlan(parse_tgd("R(x,y,x) -> S(y,z,x)"))

    def test_matching_shape_transfers_as_it_is(self):
        # h = {x -> 1, y -> 2}: the identity specialization.
        body_terms, heads, normal, special = self.PLAN.transfer((1, 2, 1))
        assert body_terms == (x, y)
        assert heads == (("S", (1, 2, 3), (y, z, x)),)
        # y sits at body position 2 and head position 1, x at 1 and 3.
        assert sorted(normal) == [(1, 0, 3), (2, 0, 1)]
        assert special == [(0, 2)]

    def test_collapsing_shape_specializes_the_head(self):
        # h = {x -> 1, y -> 1}: y collapses onto x, so the head repeats x.
        body_terms, heads, normal, special = self.PLAN.transfer((1, 1, 1))
        assert body_terms == (x,)
        assert heads == (("S", (1, 2, 1), (x, z)),)
        assert normal == [(1, 0, 1)]
        assert special == [(0, 2)]
        assert repr(self.PLAN.simplify((1, 1, 1))) == "R__1_1_1(?x) -> S__1_2_1(?x, ?z)"

    def test_shape_that_separates_a_repeated_variable_does_not_transfer(self):
        # No homomorphism from R(x,y,x) to R(1,2,3): x cannot be 1 and 3.
        assert self.PLAN.transfer((1, 2, 3)) is None
        assert self.PLAN.simplify((1, 2, 3)) is None
        assert self.PLAN.transfer((1, 1, 2)) is None

    def test_the_representative_is_the_first_variable_of_its_class(self):
        # Shape (1,1): y maps to x although only y occurs in the head.
        plan = TransferPlan(parse_tgd("R(x,y) -> S(y)"))
        body_terms, heads, normal, special = plan.transfer((1, 1))
        assert body_terms == (x,) and heads == (("S", (1,), (x,)),)
        assert normal == [(1, 0, 1)] and special == []

    def test_heads_share_their_existentials(self):
        plan = TransferPlan(parse_tgd("R(x,y) -> S(x,z), T(z,y)"))
        body_terms, heads, normal, special = plan.transfer((1, 2))
        assert heads == (("S", (1, 2), (x, z)), ("T", (1, 2), (z, y)))
        assert sorted(normal) == [(1, 0, 1), (2, 1, 2)]
        assert sorted(special) == [(0, 2), (1, 1)]
        simplified = plan.simplify((1, 2))
        assert simplified.existential_variables() == {z}

    def test_empty_frontier_and_nullary_atoms(self):
        plan = TransferPlan(parse_tgd("N() -> P(z), N()"))
        assert (plan.name, plan.arity) == ("N", 0)
        body_terms, heads, normal, special = plan.transfer(())
        assert body_terms == ()
        assert heads == (("P", (1,), (z,)), ("N", (), ()))
        assert normal == [] and special == [(0, 1)]
        assert repr(plan.simplify(())) == "N__() -> P__1(?z), N__()"

    def test_the_label_follows_the_rule(self):
        (rule,) = parse_rules("R(x,y) -> S(y,z)")
        assert TransferPlan(rule).simplify((1, 1)).label == rule.label is not None

    def test_plans_are_indexed_by_body_name_and_arity(self):
        rules = parse_rules("R(x,y) -> S(y,z)\nS(x,y) -> R(y,x)\nR(x,x) -> T(x)")
        index = plans_by_body(rules.tgds)
        assert sorted(index) == [("R", 2), ("S", 2)]
        assert [plan.label for plan in index[("R", 2)]] == ["r1", "r3"]


class TestResultBuiltFromPlans:
    RULES = "R(x,y) -> S(y,z)\nS(x,y) -> T(x,x)\nR(x,x) -> U(x)"

    def test_counts_do_not_need_the_rules(self):
        result = dynamic_simplification({Shape("R", (1, 2))}, parse_rules(self.RULES))
        assert result.rule_count == 2
        assert result._tgds is None  # nothing was materialised to count
        assert len(result.dependency_graph()) == 5
        assert result.tgds is result.tgds and len(result.tgds) == 2

    def test_the_emitted_graph_is_the_graph_of_the_rules(self):
        shapes = {Shape("R", (1, 2)), Shape("R", (1, 1))}
        result = dynamic_simplification(shapes, parse_rules(self.RULES))
        rebuilt = build_dependency_graph(result.tgds)
        emitted = result.dependency_graph()
        assert emitted.nodes() == rebuilt.nodes() and emitted.edges() == rebuilt.edges()

    def test_two_rules_with_one_simplification_count_once(self):
        # Under R[1,1] both rules become R__1_1(x) -> S__1_1(x); the first label wins.
        rules = parse_rules("R(x,y) -> S(x,y)\nR(x,x) -> S(x,x)")
        result = dynamic_simplification({Shape("R", (1, 1))}, rules)
        assert result.rule_count == 1
        (rule,) = result.tgds
        assert rule.label == "r1"
