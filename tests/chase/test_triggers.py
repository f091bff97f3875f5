"""Unit tests for repro.chase.triggers, over the reference trigger enumeration."""

import pytest

from repro.chase.matching import IndexedTriggerSource, variable_slots
from repro.chase.triggers import FiringPlan
from repro.core.atoms import Atom
from repro.core.instances import Instance
from repro.core.parser import parse_database, parse_rules
from repro.core.predicates import Predicate
from repro.core.terms import Constant, Null, NullFactory, Variable
from repro.core.tgds import TGD
from repro.fuzz.reference import triggers_on


def _slots(tgd, mapping):
    """A body homomorphism as the slot tuple the matching yields."""
    return tuple(mapping[variable] for variable in variable_slots(tgd.body))


def _triggers(rules_text, facts_text, restrict_to_atoms=None):
    """``(plan, mapping)`` per trigger the reference enumerates."""
    rules = tuple(parse_rules(rules_text))
    instance = Instance(parse_database(facts_text).atoms())
    return [
        (FiringPlan(rules[index], index), mapping)
        for index, mapping in triggers_on(rules, instance, restrict_to_atoms)
    ]


def _single_trigger(rules_text, facts_text):
    triggers = _triggers(rules_text, facts_text)
    assert len(triggers) == 1
    return triggers[0]


def _fire(plan, key, factory):
    """``result(σ, h)`` of the trigger keyed *key*, as atoms."""
    return tuple(Atom(*head) for head in plan.head_rows(plan.values(key, factory)))


def _result(plan, mapping, factory):
    return _fire(plan, plan.key(_slots(plan.tgd, mapping)), factory)


class TestTriggerEnumeration:
    def test_counts_one_per_homomorphism(self):
        assert len(_triggers("R(x,y) -> S(y,z)", "R(a,b).\nR(b,c).")) == 2

    def test_repeated_body_variable_restricts_matches(self):
        assert len(_triggers("R(x,x) -> S(x,z)", "R(a,a).\nR(a,b).")) == 1

    def test_restrict_to_atoms_filters(self):
        new_atom = next(iter(parse_database("R(b,c).")))
        restricted = _triggers("R(x,y) -> S(y,z)", "R(a,b).\nR(b,c).", {new_atom})
        assert len(restricted) == 1
        assert restricted[0][1][Variable("x")] == Constant("b")

    def test_multi_body_restriction_keeps_joins_touching_new_atoms(self):
        new_atom = next(iter(parse_database("S(b,c).")))
        restricted = _triggers("R(x,y), S(y,w) -> T(x,w)", "R(a,b).\nS(b,c).", {new_atom})
        assert len(restricted) == 1


class TestTriggerResults:
    def test_frontier_variables_are_copied(self):
        plan, mapping = _single_trigger("R(x,y) -> S(y,z)", "R(a,b).")
        atoms = _result(plan, mapping, NullFactory())
        assert len(atoms) == 1
        assert atoms[0].terms[0] == Constant("b")
        assert atoms[0].terms[1].name  # a null

    def test_null_is_deterministic_per_trigger_and_variable(self):
        plan, mapping = _single_trigger("R(x,y) -> S(y,z), T(z)", "R(a,b).")
        factory = NullFactory()
        first = _result(plan, mapping, factory)
        second = _result(plan, mapping, factory)
        assert first == second
        # The same existential variable z is mapped to the same null in both head atoms.
        assert first[0].terms[1] == first[1].terms[0]

    def test_semi_oblivious_key_ignores_non_frontier_variables(self):
        triggers = _triggers("R(x,y) -> S(y,z)", "R(a,b).\nR(c,b).")
        keys = {plan.key(_slots(plan.tgd, mapping)) for plan, mapping in triggers}
        assert len(triggers) == 2
        assert len(keys) == 1  # same frontier witness y=b

    def test_oblivious_key_distinguishes_full_homomorphisms(self):
        triggers = _triggers("R(x,y) -> S(y,z)", "R(a,b).\nR(c,b).")
        keys = {
            FiringPlan(plan.tgd, plan.index, "homomorphism").key(_slots(plan.tgd, mapping))
            for plan, mapping in triggers
        }
        assert len(keys) == 2

    def test_different_tgd_indices_key_different_nulls(self):
        factory = NullFactory()
        atoms = set()
        for plan, mapping in _triggers("R(x,y) -> S(y,z)\nT(x,y) -> S(y,z)", "R(a,b).\nT(a,b)."):
            atoms.update(_result(plan, mapping, factory))
        assert len(atoms) == 2  # two distinct nulls, one per TGD


def _definition_3_1(tgd, index, homomorphism, null_scope):
    """Firing key and ``result(σ, h)`` computed the long way, per trigger.

    The reference the compiled plan is held to: sort the witness by variable
    name, key every existential by ``(σ, witness, x)`` through the generic
    ``NullFactory.for_key``, substitute into the head.  The firing key keeps
    only the witness images: the variables are the rule's.
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
    key = (index, tuple(image for _, image in witness))
    return key, tuple(atom.substitute(images) for atom in tgd.head)


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
    """The compiled plan ≡ Definition 3.1."""

    @pytest.mark.parametrize("null_scope", ["frontier", "homomorphism"])
    @pytest.mark.parametrize("case", EDGE_RULES, ids=[case[0] for case in EDGE_RULES])
    def test_key_and_result_follow_definition_3_1(self, case, null_scope):
        _, tgd, homomorphism = case
        expected_key, expected_atoms = _definition_3_1(tgd, 4, homomorphism, null_scope)
        plan = FiringPlan(tgd, 4, null_scope)
        key = plan.key(_slots(tgd, homomorphism))
        assert key == expected_key
        assert _fire(plan, key, NullFactory()) == expected_atoms

    @pytest.mark.parametrize("case", EDGE_RULES, ids=[case[0] for case in EDGE_RULES])
    def test_both_enumerations_find_the_homomorphism(self, case):
        # Over the body's own image, the reference and the indexed source
        # each enumerate exactly the homomorphism the plan is keyed on.
        _, tgd, homomorphism = case
        instance = Instance(atom.substitute(homomorphism) for atom in tgd.body)
        assert [mapping for _, mapping in triggers_on((tgd,), instance)] == [homomorphism]
        indexed = IndexedTriggerSource((tgd,)).initial(instance)
        assert [values for _, values in indexed] == [_slots(tgd, homomorphism)]

    def test_an_unknown_null_scope_is_rejected_when_the_plan_is_built(self):
        tgd = _rule("R(x,y) -> S(y,z)")
        with pytest.raises(ValueError, match="null_scope"):
            FiringPlan(tgd, 0, "body")

    def test_the_result_is_a_function_of_the_key_alone(self):
        # Two body homomorphisms with one frontier witness: one key, one result.
        plan = FiringPlan(_rule("R(x,y) -> S(y,z)"), 0)
        first, second = (_A, _B), (_N, _B)  # slot tuples (x, y)
        assert plan.key(first) == plan.key(second)
        factory = NullFactory()
        assert _fire(plan, plan.key(first), factory) == _fire(plan, plan.key(second), factory)
        assert len(factory) == 1
