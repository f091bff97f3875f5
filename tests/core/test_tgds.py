"""Unit tests for repro.core.tgds."""

import os
import pickle
import subprocess
import sys

import pytest

from repro.core.atoms import Atom
from repro.core.parser import parse_rules, parse_tgd
from repro.core.predicates import Predicate, Schema
from repro.core.terms import Constant, Null, Variable
from repro.core.tgds import TGD, TGDSet
from repro.exceptions import NotLinearError, NotSimpleLinearError, ValidationError

R = Predicate("R", 2)
S = Predicate("S", 2)
x, y, z = Variable("x"), Variable("y"), Variable("z")


class TestTGDConstruction:
    def test_empty_body_rejected(self):
        with pytest.raises(ValidationError):
            TGD((), (Atom(R, (x, y)),))

    def test_empty_head_rejected(self):
        with pytest.raises(ValidationError):
            TGD((Atom(R, (x, y)),), ())

    def test_constants_rejected(self):
        with pytest.raises(ValidationError):
            TGD((Atom(R, (x, Constant("a"))),), (Atom(S, (x, x)),))
        # The first term that is no variable, body before head, is the one named.
        with pytest.raises(ValidationError, match=r"constant-free, found constant a in R\(\?x, a\)"):
            TGD((Atom(R, (x, Constant("a"))),), (Atom(S, (Null("n"), x)),))
        with pytest.raises(ValidationError, match=r"found Null\('n'\) in S\(_:n, a\)"):
            TGD((Atom(R, (x, y)),), (Atom(S, (Null("n"), Constant("a"))),))

    def test_equality_ignores_label(self):
        first = TGD((Atom(R, (x, y)),), (Atom(S, (y, z)),), label="a")
        second = TGD((Atom(R, (x, y)),), (Atom(S, (y, z)),), label="b")
        assert first == second
        assert hash(first) == hash(second)

    def test_immutability(self):
        tgd = parse_tgd("R(x,y) -> S(y,z)")
        with pytest.raises(AttributeError):
            tgd.body = ()

    def test_a_pickled_rule_rehashes_under_the_receivers_hash_seed(self):
        # The compiled rule caches a hash over str hashes, which a spawned
        # worker computes under its own PYTHONHASHSEED.
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        environment = dict(os.environ, PYTHONHASHSEED=seed)
        environment["PYTHONPATH"] = os.pathsep.join(sys.path)
        script = (
            "import pickle, sys; from repro.core.parser import parse_rules; "
            "rules = pickle.load(sys.stdin.buffer); "
            "print(all(tgd in rules for tgd in parse_rules('R(x,y) -> S(y,z)\\nS(x,x) -> R(x,w)')))"
        )
        payload = pickle.dumps(parse_rules("R(x,y) -> S(y,z)\nS(x,x) -> R(x,w)"))
        child = subprocess.run(
            [sys.executable, "-c", script], input=payload, env=environment,
            capture_output=True, timeout=60,
        )
        assert child.returncode == 0, child.stderr.decode()
        assert child.stdout.decode().strip() == "True"


class TestTGDVariableSets:
    def test_frontier(self):
        tgd = parse_tgd("R(x,y) -> S(y,z)")
        assert tgd.frontier() == {Variable("y")}

    def test_existential_variables(self):
        tgd = parse_tgd("R(x,y) -> S(y,z)")
        assert tgd.existential_variables() == {Variable("z")}

    def test_empty_frontier_detection(self):
        tgd = parse_tgd("R(x,y) -> S(z,w)")
        assert tgd.has_empty_frontier()
        assert not parse_tgd("R(x,y) -> S(x,w)").has_empty_frontier()

    def test_body_and_head_variables(self):
        tgd = parse_tgd("R(x,y), S(y,w) -> T(x,z)")
        assert tgd.body_variables() == {Variable("x"), Variable("y"), Variable("w")}
        assert tgd.head_variables() == {Variable("x"), Variable("z")}


class TestTGDClassification:
    def test_linear(self):
        assert parse_tgd("R(x,y) -> S(y,z)").is_linear()
        assert not parse_tgd("R(x,y), S(y,w) -> T(x,z)").is_linear()

    def test_simple_linear(self):
        assert parse_tgd("R(x,y) -> S(y,y)").is_simple_linear()
        assert not parse_tgd("R(x,x) -> S(x,z)").is_simple_linear()
        assert not parse_tgd("R(x,y), S(y,z) -> T(x,z)").is_simple_linear()

    def test_single_head(self):
        assert parse_tgd("R(x,y) -> S(y,z)").is_single_head()
        assert not parse_tgd("R(x,y) -> S(y,z), T(x,z)").is_single_head()

    def test_predicates(self):
        tgd = parse_tgd("R(x,y) -> S(y,z), T(x,z)")
        assert {p.name for p in tgd.predicates()} == {"R", "S", "T"}


class TestTGDSet:
    def test_deduplication(self):
        tgds = TGDSet([parse_tgd("R(x,y) -> S(y,z)"), parse_tgd("R(x,y) -> S(y,z)")])
        assert len(tgds) == 1

    def test_insertion_order_preserved(self):
        rules = parse_rules("R(x,y) -> S(y,z)\nS(x,y) -> T(x,y)\nT(x,y) -> R(x,y)")
        names = [tgd.body[0].predicate.name for tgd in rules]
        assert names == ["R", "S", "T"]

    def test_schema(self):
        rules = parse_rules("R(x,y) -> S(y,z)\nS(x,y) -> T(x,y)")
        assert {p.name for p in rules.schema()} == {"R", "S", "T"}

    def test_class_checks(self):
        sl = parse_rules("R(x,y) -> S(y,z)")
        lin = parse_rules("R(x,x) -> S(x,z)")
        assert sl.is_simple_linear() and sl.is_linear()
        assert lin.is_linear() and not lin.is_simple_linear()
        with pytest.raises(NotSimpleLinearError):
            lin.require_simple_linear()

    def test_require_linear_rejects_multi_body(self):
        rules = parse_rules("R(x,y), S(y,z) -> T(x,z)")
        with pytest.raises(NotLinearError):
            rules.require_linear()

    def test_by_body_predicate_index(self):
        rules = parse_rules("R(x,y) -> S(y,z)\nR(x,y) -> T(x,y)\nS(x,y) -> T(x,y)")
        index = rules.by_body_predicate()
        assert len(index[Predicate("R", 2)]) == 2
        assert len(index[Predicate("S", 2)]) == 1

    def test_counts(self):
        rules = parse_rules("R(x,y) -> S(y,z), T(x,z)\nS(x,y) -> T(x,y)")
        assert rules.max_arity() == 2

    def test_membership_and_equality(self):
        first = parse_rules("R(x,y) -> S(y,z)")
        second = parse_rules("R(x,y) -> S(y,z)")
        assert first == second
        assert tuple(first)[0] in second


class TestTGDSetHoldsCompiledRules:
    """The set stores compiled rules; its TGD-facing behaviour is unchanged."""

    TEXT = "R(x,y) -> S(y,z)\nS(x,y) -> R(y,x)\nR(x,x) -> T(x)\nR(x,y) -> S(y,z)"

    def test_iteration_yields_equal_tgds_and_the_same_objects_each_time(self):
        rules = parse_rules(self.TEXT)
        first, second = list(rules), list(rules)
        assert first == [parse_tgd(line) for line in self.TEXT.splitlines()[:3]]
        assert all(a is b for a, b in zip(first, second))
        assert rules.tgds == tuple(first)
        assert [tgd.rule for tgd in first] == list(rules.rules)

    def test_an_added_tgd_is_what_iteration_yields(self):
        tgd = parse_tgd("R(x,y) -> S(y,z)")
        rules = TGDSet([tgd])
        assert next(iter(rules)) is tgd
        assert rules.rules == (tgd.rule,)

    def test_views_catch_up_with_rules_added_after_iteration(self):
        rules = parse_rules("R(x,y) -> S(y,z)")
        (first,) = rules
        assert rules.add_rule(parse_tgd("S(x,y) -> R(y,x)").rule)
        assert rules.add(parse_tgd("R(x,x) -> T(x)"))
        assert list(rules)[0] is first
        assert [str(tgd) for tgd in rules] == [
            "R(?x, ?y) -> S(?y, ?z)", "S(?x, ?y) -> R(?y, ?x)", "R(?x, ?x) -> T(?x)"
        ]

    def test_membership_equality_length_and_duplicates(self):
        rules = parse_rules(self.TEXT)
        assert len(rules) == 3
        assert parse_tgd("S(x,y) -> R(y,x)") in rules
        assert parse_tgd("S(a,b) -> R(b,a)") not in rules  # equality reads variable names
        assert "R(x,y) -> S(y,z)" not in rules
        assert not rules.add(parse_tgd("R(x,y) -> S(y,z)", label="other"))
        assert not rules.add_rule(parse_tgd("R(x,x) -> T(x)").rule)
        assert len(rules) == 3
        assert rules == TGDSet(reversed(list(rules)))
        assert rules != parse_rules("R(x,y) -> S(y,z)")

    def test_by_body_predicate_holds_the_iterated_tgds(self):
        rules = parse_rules(self.TEXT)
        index = rules.by_body_predicate()
        assert index[Predicate("R", 2)] == [rules.tgds[0], rules.tgds[2]]
        assert index[Predicate("R", 2)][0] is rules.tgds[0]

    def test_a_pickle_round_trip(self):
        rules = parse_rules(self.TEXT)
        list(rules)
        copy = pickle.loads(pickle.dumps(rules))
        assert copy == rules and copy.tgds == rules.tgds and copy.rules == rules.rules
        assert copy.schema() == rules.schema()
        assert [tgd.label for tgd in copy] == ["r1", "r2", "r3"]

    def test_the_declared_schema_equals_the_recomputed_one(self):
        rules = parse_rules(self.TEXT + "\nN() -> P(z), N()")
        recomputed = TGDSet(rules.tgds).schema()
        assert rules.schema() == recomputed
        assert rules.schema().predicates == recomputed.predicates

    def test_mutating_the_returned_schema_does_not_change_the_next_call(self):
        rules = parse_rules(self.TEXT)
        schema = rules.schema()
        schema.add(Predicate("Extra", 4))
        assert "Extra" not in rules.schema()
        assert rules.schema() is not rules.schema()

    def test_a_given_schema_with_extra_predicates_stays_out(self):
        given = Schema([Predicate("Extra", 4), Predicate("R", 2)])
        rules = parse_rules(self.TEXT, schema=given)
        assert "Extra" in given
        assert {predicate.name for predicate in rules.schema()} == {"R", "S", "T"}

    def test_a_later_add_recomputes_the_schema(self):
        rules = parse_rules(self.TEXT)
        rules.add(parse_tgd("T(x) -> U(x,y)"))
        assert {predicate.name for predicate in rules.schema()} == {"R", "S", "T", "U"}
