"""Unit tests for the indexed matching subsystem (repro.chase.matching)."""

import pytest

from repro.chase.matching import (
    IndexedTriggerSource,
    JoinPlan,
    has_homomorphism,
    make_trigger_source,
)
from repro.chase.rounds import seed_store
from repro.core.instances import Instance
from repro.core.parser import parse_database, parse_rules
from repro.core.terms import Constant, Variable
from repro.fuzz.reference import NaiveTriggerSource, homomorphisms
from repro.storage.sqlbackend import SqliteAtomStore


def _instance(facts_text):
    return Instance(parse_database(facts_text).atoms())


def _tgd(rules_text):
    return next(iter(parse_rules(rules_text)))


def _body_matches(tgd, store):
    """The body homomorphisms of *tgd* the indexed source enumerates on *store*,
    as mappings (the source yields slot tuples in the compiled rule's slot order)."""
    slots = tuple(map(Variable, tgd.rule.names))
    matches = IndexedTriggerSource((tgd.rule,)).initial(store)
    return [dict(zip(slots, values)) for _, values in matches]


def _row(store, predicate_name):
    """The only row over the named predicate."""
    (atom,) = [atom for atom in store if atom.predicate.name == predicate_name]
    return atom.predicate, atom.terms


def _as_set(mappings):
    return {frozenset(mapping.items()) for mapping in mappings}


class TestIndexedHomomorphisms:
    def test_matches_the_reference_enumeration(self):
        tgd = _tgd("R(x,y), S(y,z), R(z,w) -> T(x,w)")
        instance = _instance("R(a,b).\nR(b,c).\nR(c,d).\nS(b,c).\nS(c,a).\nS(d,d).")
        reference = _as_set(homomorphisms(tgd.body, instance))
        indexed = _as_set(_body_matches(tgd, instance))
        assert reference == indexed
        assert len(indexed) > 0

    def test_base_assignment_is_respected(self):
        tgd = _tgd("R(x,y) -> T(x)")
        instance = _instance("R(a,b).\nR(c,d).")
        x, y = Variable("x"), Variable("y")
        assert has_homomorphism(tgd.body, instance, base={x: Constant("a")})
        assert has_homomorphism(tgd.body, instance, base={x: Constant("a"), y: Constant("b")})
        assert not has_homomorphism(tgd.body, instance, base={x: Constant("a"), y: Constant("d")})

    def test_has_homomorphism(self):
        tgd = _tgd("R(x,y), S(y,z) -> T(x)")
        instance = _instance("R(a,b).\nS(b,c).")
        assert has_homomorphism(tgd.body, instance)
        assert not has_homomorphism(
            tgd.body, instance, base={Variable("y"): Constant("c")}
        )

    def test_the_base_mapping_is_not_mutated(self):
        tgd = _tgd("R(x,y), S(y,z) -> T(x)")
        base = {Variable("x"): Constant("a")}
        assert has_homomorphism(tgd.body, _instance("R(a,b).\nS(b,c)."), base=base)
        assert base == {Variable("x"): Constant("a")}

    def test_repeated_variables_prune_via_index(self):
        tgd = _tgd("R(x,x) -> T(x)")
        instance = _instance("R(a,a).\nR(a,b).\nR(b,b).")
        assert len(_body_matches(tgd, instance)) == 2

    def test_works_against_sqlite_store(self):
        tgd = _tgd("R(x,y), S(y,z) -> T(x,z)")
        store = SqliteAtomStore()
        seed_store(store, parse_database("R(a,b).\nS(b,c).\nS(d,e)."))
        results = _body_matches(tgd, store)
        assert len(results) == 1
        assert results[0][Variable("z")] == Constant("c")
        assert has_homomorphism(tgd.body, store, base={Variable("z"): Constant("c")})
        assert not has_homomorphism(tgd.body, store, base={Variable("z"): Constant("e")})


class TestJoinPlan:
    def test_seed_slot_out_of_range(self):
        tgd = _tgd("R(x,y) -> T(x)")
        with pytest.raises(ValueError):
            JoinPlan(tgd.rule, 1)

    def test_seed_mismatch_yields_nothing(self):
        tgd = _tgd("R(x,x) -> T(x)")
        plan = JoinPlan(tgd.rule, 0)
        instance = _instance("R(a,b).")
        _, seed = _row(instance, "R")
        assert list(plan.matches(instance, seed)) == []

    def test_joins_outward_from_seed(self):
        tgd = _tgd("R(x,y), S(y,z) -> T(x,z)")
        instance = _instance("R(a,b).\nS(b,c).\nS(b,d).")
        _, seed = _row(instance, "R")
        plan = JoinPlan(tgd.rule, 0)
        # slots x, y, z: the seed fills the first two, the join the third
        matches = set(plan.matches(instance, seed))
        assert matches == {seed + (Constant("c"),), seed + (Constant("d"),)}

    def test_delta_excludes_earlier_slots(self):
        # Body R(x,y), S(y,z): a homomorphism using delta rows at both slots
        # must only be reported by the plan seeded at the *first* delta slot.
        tgd = _tgd("R(x,y), S(y,z) -> T(x,z)")
        instance = _instance("R(a,b).\nS(b,c).")
        r_predicate, r_row = _row(instance, "R")
        s_predicate, s_row = _row(instance, "S")
        delta = {r_predicate: {r_row}, s_predicate: {s_row}}
        seeded_at_r = list(JoinPlan(tgd.rule, 0).matches(instance, r_row, delta))
        seeded_at_s = list(JoinPlan(tgd.rule, 1).matches(instance, s_row, delta))
        assert len(seeded_at_r) == 1
        assert seeded_at_s == []  # slot 0 < seed slot may not use a delta row

    def test_a_seed_at_a_later_slot_binds_its_own_variables(self):
        tgd = _tgd("R(x,y), S(y,z) -> T(x,z)")
        instance = _instance("R(a,b).\nS(b,c).")
        _, s_row = _row(instance, "S")
        assert list(JoinPlan(tgd.rule, 1).matches(instance, s_row)) == [
            (Constant("a"), Constant("b"), Constant("c"))
        ]


class TestTriggerSources:
    TEXT = "R(x,y), S(y,z) -> T(x,z)\nT(x,y) -> U(y)"

    def _setup(self):
        rules = parse_rules(self.TEXT).rules
        instance = _instance("R(a,b).\nS(b,c).\nS(b,d).")
        return rules, instance

    @staticmethod
    def _triggers(matches):
        return list(matches)

    def test_initial_agrees_with_the_reference(self):
        rules, instance = self._setup()
        reference = self._triggers(NaiveTriggerSource(rules).initial(instance))
        indexed = self._triggers(IndexedTriggerSource(rules).initial(instance))
        assert len(reference) == 2  # R(a,b) joins S(b,c) and S(b,d)
        assert set(reference) == set(indexed)

    def test_delta_agrees_with_the_reference_and_has_no_duplicates(self):
        rules, instance = self._setup()
        new = parse_database("R(e,b).\nS(b,f).")
        for atom in new:
            instance.add(atom)
        delta = {predicate: sorted(new.rows_matching(predicate)) for predicate in new.predicates()}
        reference = self._triggers(NaiveTriggerSource(rules).delta(instance, delta))
        indexed = self._triggers(IndexedTriggerSource(rules).delta(instance, delta))
        assert set(reference) == set(indexed)
        assert len(indexed) == len(set(indexed))  # semi-naive dedup: no duplicates

    def test_make_trigger_source(self):
        rules, instance = self._setup()
        source = make_trigger_source(tuple(parse_rules(self.TEXT)))
        assert isinstance(source, IndexedTriggerSource)
        assert list(source.initial(instance)) == list(IndexedTriggerSource(rules).initial(instance))
