"""Unit tests for repro.chase.triggers."""

import pytest

from repro.chase.triggers import FiringPlan, Trigger, trigger_count, triggers_on
from repro.core.atoms import Atom
from repro.core.instances import Instance
from repro.core.parser import parse_database, parse_rules
from repro.core.predicates import Predicate
from repro.core.substitutions import Substitution
from repro.core.terms import Constant, Null, NullFactory, Variable
from repro.core.tgds import TGD


def _single_trigger(rules_text, facts_text):
    rules = parse_rules(rules_text)
    instance = Instance(parse_database(facts_text).atoms())
    triggers = list(triggers_on(tuple(rules), instance))
    assert len(triggers) == 1
    return triggers[0]


class TestTriggerEnumeration:
    def test_counts_one_per_homomorphism(self):
        rules = parse_rules("R(x,y) -> S(y,z)")
        instance = Instance(parse_database("R(a,b).\nR(b,c).").atoms())
        assert trigger_count(rules, instance) == 2

    def test_repeated_body_variable_restricts_matches(self):
        rules = parse_rules("R(x,x) -> S(x,z)")
        instance = Instance(parse_database("R(a,a).\nR(a,b).").atoms())
        assert trigger_count(rules, instance) == 1

    def test_restrict_to_atoms_filters(self):
        rules = parse_rules("R(x,y) -> S(y,z)")
        database = parse_database("R(a,b).\nR(b,c).")
        instance = Instance(database.atoms())
        new_atom = next(iter(parse_database("R(b,c).")))
        restricted = list(triggers_on(tuple(rules), instance, restrict_to_atoms={new_atom}))
        assert len(restricted) == 1
        assert restricted[0].homomorphism[Variable("x")] == Constant("b")

    def test_multi_body_restriction_keeps_joins_touching_new_atoms(self):
        rules = parse_rules("R(x,y), S(y,w) -> T(x,w)")
        instance = Instance(parse_database("R(a,b).\nS(b,c).").atoms())
        new_atom = next(iter(parse_database("S(b,c).")))
        restricted = list(triggers_on(tuple(rules), instance, restrict_to_atoms={new_atom}))
        assert len(restricted) == 1


class TestTriggerResults:
    def test_frontier_variables_are_copied(self):
        trigger = _single_trigger("R(x,y) -> S(y,z)", "R(a,b).")
        atoms = trigger.result(NullFactory())
        assert len(atoms) == 1
        assert atoms[0].terms[0] == Constant("b")
        assert atoms[0].terms[1].name  # a null

    def test_null_is_deterministic_per_trigger_and_variable(self):
        trigger = _single_trigger("R(x,y) -> S(y,z), T(z)", "R(a,b).")
        factory = NullFactory()
        first = trigger.result(factory)
        second = trigger.result(factory)
        assert first == second
        # The same existential variable z is mapped to the same null in both head atoms.
        assert first[0].terms[1] == first[1].terms[0]

    def test_semi_oblivious_key_ignores_non_frontier_variables(self):
        rules = parse_rules("R(x,y) -> S(y,z)")
        instance = Instance(parse_database("R(a,b).\nR(c,b).").atoms())
        triggers = list(triggers_on(tuple(rules), instance))
        keys = {trigger.semi_oblivious_key() for trigger in triggers}
        assert len(triggers) == 2
        assert len(keys) == 1  # same frontier witness y=b

    def test_oblivious_key_distinguishes_full_homomorphisms(self):
        rules = parse_rules("R(x,y) -> S(y,z)")
        instance = Instance(parse_database("R(a,b).\nR(c,b).").atoms())
        triggers = list(triggers_on(tuple(rules), instance))
        keys = {trigger.oblivious_key() for trigger in triggers}
        assert len(keys) == 2

    def test_different_tgd_indices_key_different_nulls(self):
        rules = parse_rules("R(x,y) -> S(y,z)\nT(x,y) -> S(y,z)")
        instance = Instance(parse_database("R(a,b).\nT(a,b).").atoms())
        factory = NullFactory()
        atoms = set()
        for trigger in triggers_on(tuple(rules), instance):
            atoms.update(trigger.result(factory))
        assert len(atoms) == 2  # two distinct nulls, one per TGD


def _definition_3_1(tgd, index, homomorphism, null_scope):
    """Firing key and ``result(σ, h)`` computed the long way, per trigger.

    The reference the compiled plan is held to: sort the witness by variable
    name, key every existential by ``(σ, witness, x)`` through the generic
    ``NullFactory.for_key``, substitute into the head.
    """
    frontier = tgd.frontier()
    scope = frontier if null_scope == "frontier" else tgd.body_variables()
    witness = tuple(
        sorted(((v, homomorphism[v]) for v in scope), key=lambda pair: pair[0].name)
    )
    factory = NullFactory()
    images = {
        v: homomorphism[v] if v in frontier else factory.for_key((index, witness, v.name))
        for v in tgd.head_variables()
    }
    return (index, witness), tuple(atom.substitute(images) for atom in tgd.head)


def _rule(text):
    return next(iter(parse_rules(text)))


_X, _Y, _W, _Z = (Variable(name) for name in "xywz")
_A, _B, _N = Constant("a"), Constant("it's"), Null("n_87d76f44a361da459c")

#: (name, rule, body homomorphism) — the rule shapes the plan compiles specially.
EDGE_RULES = (
    ("empty_frontier", _rule("P(x) -> S(z,z)"), {_X: _A}),
    ("repeated_head_variable", _rule("R(x,y) -> S(y,y,z)"), {_X: _A, _Y: _B}),
    ("several_existentials", _rule("R(x,y) -> S(x,z,w), T(w,z)"), {_X: _N, _Y: _A}),
    ("head_atoms_sharing_a_null", _rule("R(x,y) -> S(y,z), T(z)"), {_X: _A, _Y: _N}),
    ("repeated_body_variable", _rule("R(x,x) -> S(x,z)"), {_X: _B}),
    ("join_body", _rule("R(x,y), S(y,w) -> T(x,w,z)"), {_X: _A, _Y: _B, _W: _N}),
    ("full_rule_no_nulls", _rule("R(x,y) -> S(y,x)"), {_X: _A, _Y: _B}),
    (
        "nullary_body",
        TGD((Atom(Predicate("P", 0), ()),), (Atom(Predicate("Q", 1), (_Z,)),)),
        {},
    ),
    (
        "nullary_head",
        TGD((Atom(Predicate("R", 1), (_X,)),), (Atom(Predicate("Q", 0), ()),)),
        {_X: _A},
    ),
)


class TestFiringPlan:
    """The compiled plan ≡ Definition 3.1, and ``Trigger`` delegates to it."""

    @pytest.mark.parametrize("null_scope", ["frontier", "homomorphism"])
    @pytest.mark.parametrize("case", EDGE_RULES, ids=[case[0] for case in EDGE_RULES])
    def test_key_and_result_follow_definition_3_1(self, case, null_scope):
        _, tgd, homomorphism = case
        expected_key, expected_atoms = _definition_3_1(tgd, 4, homomorphism, null_scope)
        plan = FiringPlan(tgd, 4, null_scope)
        key = plan.key(homomorphism)
        assert key == expected_key
        assert plan.result(key, NullFactory()) == expected_atoms

    @pytest.mark.parametrize("case", EDGE_RULES, ids=[case[0] for case in EDGE_RULES])
    def test_trigger_methods_delegate_with_unchanged_results(self, case):
        _, tgd, homomorphism = case
        trigger = Trigger(tgd, 4, Substitution(homomorphism))
        frontier_key, frontier_atoms = _definition_3_1(tgd, 4, homomorphism, "frontier")
        body_key, body_atoms = _definition_3_1(tgd, 4, homomorphism, "homomorphism")
        assert trigger.frontier_assignment() == frontier_key[1]
        assert trigger.semi_oblivious_key() == frontier_key
        assert trigger.oblivious_key() == body_key
        assert trigger.result(NullFactory()) == frontier_atoms
        assert trigger.result(NullFactory(), null_scope="homomorphism") == body_atoms

    def test_an_unknown_null_scope_is_rejected_when_the_plan_is_built(self):
        tgd = _rule("R(x,y) -> S(y,z)")
        with pytest.raises(ValueError, match="null_scope"):
            FiringPlan(tgd, 0, "body")
        with pytest.raises(ValueError, match="null_scope"):
            Trigger(tgd, 0, Substitution({_X: _A, _Y: _B})).result(NullFactory(), null_scope="body")

    def test_the_result_is_a_function_of_the_key_alone(self):
        # Two body homomorphisms with one frontier witness: one key, one result.
        plan = FiringPlan(_rule("R(x,y) -> S(y,z)"), 0)
        first, second = {_X: _A, _Y: _B}, {_X: _N, _Y: _B}
        assert plan.key(first) == plan.key(second)
        factory = NullFactory()
        assert plan.result(plan.key(first), factory) == plan.result(plan.key(second), factory)
        assert len(factory) == 1
