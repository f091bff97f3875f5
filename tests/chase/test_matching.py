"""Unit tests for the indexed matching subsystem (repro.chase.matching)."""

import pytest

from repro.chase.matching import (
    IndexedTriggerSource,
    JoinPlan,
    NaiveTriggerSource,
    has_homomorphism_indexed,
    homomorphisms_indexed,
    make_trigger_source,
)
from repro.chase.triggers import Trigger
from repro.core.instances import Instance
from repro.core.parser import parse_database, parse_rules
from repro.core.substitutions import Substitution, homomorphisms
from repro.core.terms import Constant, Variable
from repro.storage.sqlbackend import SqliteAtomStore


def _instance(facts_text):
    return Instance(parse_database(facts_text).atoms())


def _tgd(rules_text):
    return next(iter(parse_rules(rules_text)))


class TestHomomorphismsIndexed:
    def test_matches_naive_enumeration(self):
        tgd = _tgd("R(x,y), S(y,z), R(z,w) -> T(x,w)")
        instance = _instance("R(a,b).\nR(b,c).\nR(c,d).\nS(b,c).\nS(c,a).\nS(d,d).")
        naive = set(homomorphisms(tgd.body, instance))
        indexed = set(homomorphisms_indexed(tgd.body, instance))
        assert naive == indexed
        assert len(indexed) > 0

    def test_base_assignment_is_respected(self):
        tgd = _tgd("R(x,y) -> T(x)")
        instance = _instance("R(a,b).\nR(c,d).")
        base = {Variable("x"): Constant("a")}
        results = list(homomorphisms_indexed(tgd.body, instance, base=base))
        assert len(results) == 1
        assert results[0][Variable("y")] == Constant("b")

    def test_has_homomorphism_indexed(self):
        tgd = _tgd("R(x,y), S(y,z) -> T(x)")
        instance = _instance("R(a,b).\nS(b,c).")
        assert has_homomorphism_indexed(tgd.body, instance)
        assert not has_homomorphism_indexed(
            tgd.body, instance, base={Variable("y"): Constant("c")}
        )

    def test_repeated_variables_prune_via_index(self):
        tgd = _tgd("R(x,x) -> T(x)")
        instance = _instance("R(a,a).\nR(a,b).\nR(b,b).")
        assert len(list(homomorphisms_indexed(tgd.body, instance))) == 2

    def test_works_against_sqlite_store(self):
        tgd = _tgd("R(x,y), S(y,z) -> T(x,z)")
        store = SqliteAtomStore.from_database(parse_database("R(a,b).\nS(b,c).\nS(d,e)."))
        results = list(homomorphisms_indexed(tgd.body, store))
        assert len(results) == 1
        assert results[0][Variable("z")] == Constant("c")


class TestJoinPlan:
    def test_seed_slot_out_of_range(self):
        tgd = _tgd("R(x,y) -> T(x)")
        with pytest.raises(ValueError):
            JoinPlan(tgd.body, 1)

    def test_seed_mismatch_yields_nothing(self):
        tgd = _tgd("R(x,x) -> T(x)")
        plan = JoinPlan(tgd.body, 0)
        instance = _instance("R(a,b).")
        seed = next(iter(instance))
        assert list(plan.matches(instance, seed)) == []

    def test_joins_outward_from_seed(self):
        tgd = _tgd("R(x,y), S(y,z) -> T(x,z)")
        instance = _instance("R(a,b).\nS(b,c).\nS(b,d).")
        seed = next(a for a in instance if a.predicate.name == "R")
        plan = JoinPlan(tgd.body, 0)
        images = {Substitution(m)[Variable("z")] for m in plan.matches(instance, seed)}
        assert images == {Constant("c"), Constant("d")}

    def test_delta_excludes_earlier_slots(self):
        # Body R(x,y), S(y,z): a homomorphism using delta atoms at both slots
        # must only be reported by the plan seeded at the *first* delta slot.
        tgd = _tgd("R(x,y), S(y,z) -> T(x,z)")
        instance = _instance("R(a,b).\nS(b,c).")
        r_atom = next(a for a in instance if a.predicate.name == "R")
        s_atom = next(a for a in instance if a.predicate.name == "S")
        delta = {r_atom, s_atom}
        seeded_at_r = list(JoinPlan(tgd.body, 0).matches(instance, r_atom, delta=delta))
        seeded_at_s = list(JoinPlan(tgd.body, 1).matches(instance, s_atom, delta=delta))
        assert len(seeded_at_r) == 1
        assert seeded_at_s == []  # slot 0 < seed slot may not use a delta atom


class TestTriggerSources:
    def _setup(self):
        tgds = tuple(parse_rules("R(x,y), S(y,z) -> T(x,z)\nT(x,y) -> U(y)"))
        instance = _instance("R(a,b).\nS(b,c).\nS(b,d).")
        return tgds, instance

    @staticmethod
    def _triggers(tgds, matches):
        # Sources yield (rule index, mapping) matches; the Definition-3.1
        # object is built from one.
        return [Trigger(tgds[index], index, Substitution(mapping)) for index, mapping in matches]

    def test_initial_agrees_with_naive(self):
        tgds, instance = self._setup()
        naive = self._triggers(tgds, NaiveTriggerSource(tgds).initial(instance))
        indexed = self._triggers(tgds, IndexedTriggerSource(tgds).initial(instance))
        assert len(naive) == 2  # R(a,b) joins S(b,c) and S(b,d)
        assert set(naive) == set(indexed)

    def test_delta_agrees_with_naive_and_has_no_duplicates(self):
        tgds, instance = self._setup()
        new = set(parse_database("R(e,b).\nS(b,f).").atoms())
        for atom in new:
            instance.add(atom)
        naive = self._triggers(tgds, NaiveTriggerSource(tgds).delta(instance, new))
        indexed = self._triggers(tgds, IndexedTriggerSource(tgds).delta(instance, new))
        assert set(naive) == set(indexed)
        assert len(indexed) == len(set(indexed))  # semi-naive dedup: no duplicates

    def test_make_trigger_source(self):
        tgds, _ = self._setup()
        assert isinstance(make_trigger_source(tgds, "indexed"), IndexedTriggerSource)
        assert isinstance(make_trigger_source(tgds, "naive"), NaiveTriggerSource)
        with pytest.raises(ValueError):
            make_trigger_source(tgds, "quantum")
