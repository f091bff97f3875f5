"""Differential tests: the delta-driven indexed trigger engine vs the naive reference.

The indexed engine must be observationally equivalent to the seed
enumeration (:func:`repro.fuzz.reference.reference_chase`) on every chase
variant: same termination verdict, same round count, same number of fired
triggers and created atoms, and — thanks to content-addressed null naming —
the exact same instance, atom for atom.  The suite checks this on the three
literature scenario families (iBench, LUBM, Deep), on randomly generated
multi-atom TGD sets, and across the in-memory and sqlite store backends.
"""

import random

import pytest

from repro.chase.engine import chase
from repro.chase.result import ChaseLimits
from repro.core.atoms import Atom
from repro.core.instances import Database
from repro.core.predicates import Predicate
from repro.core.terms import Constant, Variable
from repro.core.tgds import TGD, TGDSet
from repro.fuzz.reference import reference_chase
from repro.scenarios import build_deep, build_ibench, build_lubm
from repro.storage.atom_store import InstanceView

VARIANTS = ("oblivious", "semi-oblivious", "restricted")


def assert_engines_agree(database, tgds, limits, variants=VARIANTS):
    """Assert the reference and the indexed engine produce identical ChaseResults."""
    for variant in variants:
        old = reference_chase(database, tgds, variant, limits)
        new = chase(database, tgds, variant=variant, limits=limits)
        context = f"variant={variant}"
        assert old.terminated == new.terminated, context
        assert old.stop_reason == new.stop_reason, context
        assert old.rounds == new.rounds, context
        assert old.triggers_fired == new.triggers_fired, context
        assert old.atoms_created == new.atoms_created, context
        assert old.instance == new.instance, context


class TestScenarioDifferential:
    def test_ibench_stb(self):
        scenario = build_ibench("STB-128", tuples_per_source=3, seed=5)
        assert_engines_agree(
            scenario.store.to_database(),
            scenario.tgds,
            ChaseLimits(max_atoms=5_000, max_rounds=30),
        )

    def test_ibench_ont(self):
        scenario = build_ibench("ONT-256", tuples_per_source=2, seed=6)
        assert_engines_agree(
            scenario.store.to_database(),
            scenario.tgds,
            ChaseLimits(max_atoms=5_000, max_rounds=30),
        )

    def test_lubm(self):
        scenario = build_lubm("LUBM-1", scale=1.0, seed=7)
        assert_engines_agree(
            scenario.store.to_database(),
            scenario.tgds,
            ChaseLimits(max_atoms=5_000, max_rounds=30),
        )

    def test_deep(self):
        scenario = build_deep("Deep-100", scale=0.05, seed=8)
        assert_engines_agree(
            scenario.store.to_database(),
            scenario.tgds,
            ChaseLimits(max_atoms=1_500, max_rounds=8),
        )


def random_case(seed):
    """Generate a random (database, TGD set) pair with multi-atom bodies/heads."""
    rng = random.Random(seed)
    predicates = [Predicate(f"P{i}", rng.randint(1, 3)) for i in range(5)]
    variables = [Variable(name) for name in "xyzuvw"]
    tgds = TGDSet()
    for _ in range(rng.randint(1, 5)):
        body = []
        for _ in range(rng.randint(1, 3)):
            predicate = rng.choice(predicates)
            body.append(
                Atom(predicate, tuple(rng.choice(variables) for _ in range(predicate.arity)))
            )
        body_variables = sorted({t for atom in body for t in atom.terms}, key=lambda v: v.name)
        head = []
        for _ in range(rng.randint(1, 2)):
            predicate = rng.choice(predicates)
            pool = body_variables + [Variable("e1"), Variable("e2")]
            head.append(Atom(predicate, tuple(rng.choice(pool) for _ in range(predicate.arity))))
        if all(not (set(atom.terms) & set(body_variables)) for atom in head):
            # Keep the frontier non-empty so the rule does something useful.
            head[0] = Atom(
                predicates[0], tuple(body_variables[0] for _ in range(predicates[0].arity))
            )
        tgds.add(TGD(body, head))
    database = Database()
    constants = [Constant(name) for name in "abcd"]
    for _ in range(rng.randint(1, 8)):
        predicate = rng.choice(predicates)
        database.add(
            Atom(predicate, tuple(rng.choice(constants) for _ in range(predicate.arity)))
        )
    return database, tgds


class TestRandomDifferential:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_tgd_sets(self, seed):
        database, tgds = random_case(seed)
        assert_engines_agree(database, tgds, ChaseLimits(max_atoms=200, max_rounds=12))


class TestBackendDifferential:
    """The sqlite store, transient or file-backed, must chase to the same
    instance as the in-memory one."""

    @pytest.mark.parametrize("persistent", [False, True], ids=["memory", "file"])
    @pytest.mark.parametrize("seed", range(10))
    def test_sqlite_matches_instance_backend(self, tmp_path, seed, persistent):
        database, tgds = random_case(seed)
        limits = ChaseLimits(max_atoms=200, max_rounds=12)
        for variant in VARIANTS:
            backend = f"sqlite:{tmp_path / variant}.db" if persistent else "sqlite"
            memory = chase(database, tgds, variant=variant, limits=limits)
            sqlite = chase(database, tgds, variant=variant, limits=limits, backend=backend)
            assert memory.terminated == sqlite.terminated
            assert memory.atoms_created == sqlite.atoms_created
            assert memory.triggers_fired == sqlite.triggers_fired
            assert memory.instance == sqlite.instance
            # The sqlite store itself holds the chased atoms (incl. nulls).
            assert sqlite.store.atom_count() == len(sqlite.instance)
            assert InstanceView(sqlite.store).to_instance() == memory.instance
            sqlite.store.close()

    def test_reference_matches_the_sqlite_backend(self):
        database, tgds = random_case(3)
        limits = ChaseLimits(max_atoms=200, max_rounds=12)
        reference = reference_chase(database, tgds, limits=limits)
        sqlite = chase(database, tgds, limits=limits, backend="sqlite")
        assert reference.instance == sqlite.instance
        sqlite.store.close()
