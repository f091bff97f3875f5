"""Unit tests for repro.core.predicates."""

import os
import pickle
import subprocess
import sys

import pytest

from repro.core.predicates import Position, Predicate, Schema
from repro.exceptions import ValidationError

#: Unpickles ``(table, positions)`` from stdin in a fresh interpreter and
#: looks the pickled keys up with predicates built there.
LOOKUP_SCRIPT = """
import pickle, sys
from repro.core.predicates import Position, Predicate

table, positions = pickle.load(sys.stdin.buffer)
fresh = Predicate("R", 2)
print(table[fresh], table[Predicate("Flag", 0)], Position(fresh, 1) in positions, hash(fresh))
"""


class TestPredicate:
    def test_negative_arity_rejected(self):
        with pytest.raises(ValidationError):
            Predicate("R", -1)

    def test_nullary_predicate_allowed(self):
        predicate = Predicate("Flag", 0)
        assert predicate.positions() == ()

    def test_name_required(self):
        with pytest.raises(ValidationError):
            Predicate("", 2)

    def test_positions_enumeration(self):
        predicate = Predicate("R", 3)
        positions = predicate.positions()
        assert len(positions) == 3
        assert positions[0] == Position(predicate, 1)
        assert positions[-1].index == 3

    def test_str(self):
        assert str(Predicate("R", 2)) == "R/2"

    def test_the_hash_is_cached_and_equals_the_field_hash(self):
        predicate = Predicate("R", 2)
        assert hash(predicate) == hash(("R", 2)) == hash(Predicate("R", 2))
        assert repr(predicate) == "Predicate(name='R', arity=2)"
        assert Predicate("R", 2) < Predicate("R", 3) < Predicate("S", 0)

    def test_a_pickled_predicate_rehashes_under_the_receivers_hash_seed(self):
        # A cached str hash is only valid in the interpreter that computed
        # it: a spawned worker runs under its own PYTHONHASHSEED, so keys it
        # unpickles must hash (and be found) as its own predicates do.
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        environment = dict(os.environ, PYTHONHASHSEED=seed)
        environment["PYTHONPATH"] = os.pathsep.join(sys.path)
        table = {Predicate("R", 2): "r", Predicate("Flag", 0): "flag"}
        payload = pickle.dumps((table, {Position(Predicate("R", 2), 1)}))
        child = subprocess.run(
            [sys.executable, "-c", LOOKUP_SCRIPT],
            input=payload, env=environment, capture_output=True, timeout=60,
        )
        assert child.returncode == 0, child.stderr.decode()
        r, flag, found, child_hash = child.stdout.decode().split()
        assert (r, flag, found) == ("r", "flag", "True")
        assert int(child_hash) != hash(Predicate("R", 2)), "the child must run under another seed"

    def test_equality_and_hash(self):
        assert Predicate("R", 2) == Predicate("R", 2)
        assert Predicate("R", 2) != Predicate("R", 3)
        assert len({Predicate("R", 2), Predicate("R", 2)}) == 1


class TestPosition:
    def test_index_bounds_checked(self):
        predicate = Predicate("R", 2)
        with pytest.raises(ValidationError):
            Position(predicate, 0)
        with pytest.raises(ValidationError):
            Position(predicate, 3)

    def test_str(self):
        assert str(Position(Predicate("R", 2), 1)) == "(R,1)"

    def test_ordering(self):
        predicate = Predicate("R", 3)
        assert Position(predicate, 1) < Position(predicate, 2)


class TestSchema:
    def test_add_and_get(self):
        schema = Schema()
        predicate = schema.add(Predicate("R", 2))
        assert schema.get("R") == predicate
        assert "R" in schema
        assert predicate in schema

    def test_arity_conflict_rejected(self):
        schema = Schema([Predicate("R", 2)])
        with pytest.raises(ValidationError):
            schema.add(Predicate("R", 3))

    def test_add_is_idempotent(self):
        schema = Schema()
        schema.add(Predicate("R", 2))
        schema.add(Predicate("R", 2))
        assert len(schema) == 1

    def test_positions(self):
        schema = Schema([Predicate("R", 2), Predicate("S", 1)])
        assert len(schema.positions()) == 3

    def test_max_arity(self):
        schema = Schema([Predicate("R", 2), Predicate("S", 5)])
        assert schema.max_arity() == 5
        assert Schema().max_arity() == 0

    def test_union(self):
        left = Schema([Predicate("R", 2)])
        right = Schema([Predicate("S", 1)])
        merged = left.union(right)
        assert len(merged) == 2
        assert len(left) == 1  # union does not mutate

    def test_iteration_is_sorted(self):
        schema = Schema([Predicate("Z", 1), Predicate("A", 1)])
        assert [p.name for p in schema] == ["A", "Z"]

    def test_equality(self):
        assert Schema([Predicate("R", 1)]) == Schema([Predicate("R", 1)])
        assert Schema([Predicate("R", 1)]) != Schema([Predicate("S", 1)])
