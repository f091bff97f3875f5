"""Tests for the hash-partitioned parallel chase executor.

The property suite (``tests/property/``) sweeps random programs; this file
pins the executor's API surface — worker pools, backends, budgets, error
paths — and the determinism claim on the literature scenarios.
"""

import multiprocessing
import threading

import pytest

from repro.chase.engine import chase
from repro.chase.parallel import (
    EXECUTORS,
    ParallelChaseExecutor,
    parallel_chase,
)
from repro.chase.result import ChaseLimits
from repro.core.atoms import Atom
from repro.core.instances import Instance
from repro.core.parser import parse_database, parse_rules
from repro.exceptions import ChaseLimitExceeded
from repro.scenarios import build_ibench
from repro.storage.sqlbackend import SqliteAtomStore

from tests.chase.test_differential import random_case
from tests.helpers import chase_result_fingerprint as _fingerprint

LIMITS = ChaseLimits(max_atoms=300, max_rounds=12)


class TestDeterminism:
    @pytest.mark.parametrize("seed", range(6))
    def test_worker_count_never_changes_the_result(self, seed):
        database, tgds = random_case(seed)
        expected = _fingerprint(chase(database, tgds, limits=LIMITS))
        for workers in (1, 2, 3, 4):
            result = parallel_chase(database, tgds, workers=workers, limits=LIMITS)
            assert _fingerprint(result) == expected, f"workers={workers}"

    def test_ibench_scenario_identical_across_pools(self):
        scenario = build_ibench("STB-128", tuples_per_source=3, seed=5)
        database = scenario.store.to_database()
        limits = ChaseLimits(max_atoms=5_000, max_rounds=30)
        expected = _fingerprint(chase(database, scenario.tgds, limits=limits))
        for executor in ("serial", "process"):
            result = parallel_chase(
                database, scenario.tgds, workers=2, limits=limits, executor=executor
            )
            assert _fingerprint(result) == expected, executor

    @pytest.mark.parametrize("variant", ("oblivious", "semi-oblivious", "restricted"))
    def test_variants_through_the_delegating_chase_api(self, variant):
        database, tgds = random_case(4)
        expected = _fingerprint(chase(database, tgds, variant=variant, limits=LIMITS))
        result = chase(database, tgds, variant=variant, limits=LIMITS, workers=3)
        assert _fingerprint(result) == expected


class TestBudgets:
    def test_atom_budget_stops_the_run(self):
        database = parse_database("R(a,b).")
        tgds = parse_rules("R(x,y) -> R(y,z)")
        serial = chase(database, tgds, limits=ChaseLimits(max_atoms=10))
        result = parallel_chase(
            database, tgds, workers=2, limits=ChaseLimits(max_atoms=10)
        )
        assert not result.terminated
        assert result.stop_reason == "max_atoms"
        assert _fingerprint(result) == _fingerprint(serial)

    def test_round_budget_stops_the_run(self):
        database = parse_database("R(a,b).")
        tgds = parse_rules("R(x,y) -> R(y,z)")
        serial = chase(database, tgds, limits=ChaseLimits(max_rounds=3))
        result = parallel_chase(
            database, tgds, workers=2, limits=ChaseLimits(max_rounds=3)
        )
        assert not result.terminated
        assert result.stop_reason == "max_rounds"
        assert _fingerprint(result) == _fingerprint(serial)

    def test_on_limit_raise(self):
        database = parse_database("R(a,b).")
        tgds = parse_rules("R(x,y) -> R(y,z)")
        with pytest.raises(ChaseLimitExceeded):
            parallel_chase(
                database,
                tgds,
                workers=2,
                limits=ChaseLimits(max_atoms=10),
                on_limit="raise",
            )

    def test_zero_round_budget(self):
        database = parse_database("R(a,b).")
        tgds = parse_rules("R(x,y) -> R(y,z)")
        result = parallel_chase(
            database, tgds, workers=2, limits=ChaseLimits(max_rounds=0)
        )
        assert result.rounds == 0 and result.stop_reason == "max_rounds"


class TestApiSurface:
    def test_explicit_store_is_used(self):
        database = parse_database("R(a,b).")
        tgds = parse_rules("R(x,y) -> S(y)")
        store = Instance()
        result = parallel_chase(database, tgds, workers=2, store=store)
        assert result.store is store
        assert store.atom_count() == len(result.instance)

    def test_empty_rule_set_reaches_fixpoint_immediately(self):
        database = parse_database("R(a,b).")
        result = parallel_chase(database, parse_rules(""), workers=4)
        assert result.terminated and result.rounds == 0
        assert len(result.instance) == 1

    def test_empty_database(self):
        result = parallel_chase(
            parse_database(""), parse_rules("R(x,y) -> S(y)"), workers=2
        )
        assert result.terminated and len(result.instance) == 0

    def test_validation_errors(self):
        database = parse_database("R(a,b).")
        tgds = parse_rules("R(x,y) -> S(y)")
        with pytest.raises(ValueError):
            parallel_chase(database, tgds, workers=0)
        with pytest.raises(ValueError):
            parallel_chase(database, tgds, executor="bogus")
        with pytest.raises(ValueError):
            parallel_chase(database, tgds, backend="bogus")
        with pytest.raises(ValueError):
            parallel_chase(database, tgds, variant="bogus")
        with pytest.raises(ValueError):
            ParallelChaseExecutor(on_limit="bogus")
        with pytest.raises(ValueError):
            parallel_chase(database, tgds, executor="thread")
        assert EXECUTORS == ("auto", "serial", "process")

    def test_auto_runs_an_instance_in_process_without_threads(self, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start", started.append)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", started.append)
        database, tgds = random_case(3)
        expected = _fingerprint(chase(database, tgds, limits=LIMITS))
        result = parallel_chase(database, tgds, workers=2, limits=LIMITS)
        assert _fingerprint(result) == expected
        assert started == []

    def test_auto_picks_processes_for_sqlite_stores(self):
        executor = ParallelChaseExecutor(workers=2)
        assert executor._resolve_executor(Instance()) == "serial"
        with SqliteAtomStore() as store:
            assert executor._resolve_executor(store) == "process"
            result = executor.run(
                parse_database("R(a,b)."), parse_rules("R(x,y) -> S(y)"), store=store
            )
            assert result.terminated and result.store is store


class TestWorkerDeath:
    """A killed process worker is the documented ``RuntimeError``, never a
    raw ``BrokenPipeError``/``EOFError`` — so callers' cleanup still runs."""

    DATABASE = parse_database("R(a,b).\nR(b,c).\nR(c,d).")
    TGDS = tuple(parse_rules("R(x,y) -> S(y,x)\nS(x,y), R(y,z) -> T(x,z)"))

    def _pool(self, exchange):
        store = Instance()
        for atom in self.DATABASE.atoms():
            store.add_atom(atom)
        executor = ParallelChaseExecutor(workers=2, executor="process", exchange=exchange)
        return executor._make_pool(self.TGDS, store, None)

    @staticmethod
    def _round(pool, exchange, index):
        if exchange == "shuffle":
            return pool.round(index, ())
        return pool.initial() if index == 0 else pool.delta({}, ((), ()))

    @pytest.mark.parametrize("when", ("before-first-round", "after-first-round"))
    @pytest.mark.parametrize("exchange", ("coordinator", "shuffle"))
    def test_killed_worker_surfaces_as_the_documented_error(self, exchange, when):
        pool = self._pool(exchange)
        try:
            next_round = 0
            if when == "after-first-round":
                assert len(self._round(pool, exchange, 0)) == 2
                next_round = 1
            victim = pool._processes[1]
            victim.kill()
            victim.join(timeout=10)
            with pytest.raises(
                RuntimeError, match=r"parallel chase worker 1 failed.*exited with code -9"
            ):
                self._round(pool, exchange, next_round)
        finally:
            pool.close()
        assert not any(process.is_alive() for process in pool._processes)

    def test_death_mid_run_still_flushes_the_persistent_store(self, tmp_path, monkeypatch):
        from repro.chase import parallel
        from repro.storage.sqlbackend import SqliteAtomStore

        real_round = parallel._ProcessPool.delta

        def kill_then_round(pool, *args):
            pool._processes[0].kill()
            pool._processes[0].join(timeout=10)
            return real_round(pool, *args)

        monkeypatch.setattr(parallel._ProcessPool, "delta", kill_then_round)
        path = str(tmp_path / "killed.db")
        with pytest.raises(RuntimeError, match="parallel chase worker 0 failed"):
            parallel_chase(
                self.DATABASE, self.TGDS, workers=2, executor="process",
                backend=f"sqlite:{path}",
            )
        # parallel_chase's finally flushed round 1 before the error left it
        with SqliteAtomStore(path=path) as reopened:
            assert reopened.atom_count() > len(self.DATABASE)


class TestWireProtocol:
    """What crosses a coordinator-merge control pipe: each replica's
    ``replica_seed_split`` share of the round, as ints."""

    MIXED = """
        A(x,y) -> B(y,x)
        B(x,y) -> C(x,y)
        B(x,y), D(y,z) -> E(x,z)
        C(x,y) -> F(x,z)
        E(x,y) -> A(y,x)
    """
    MIXED_FACTS = "".join(f"A(a{i},a{i + 1}).\nD(a{i},a{(i * 3) % 7}).\n" for i in range(7))
    CHAIN = "\n".join(f"H{i}(x,y) -> H{i + 1}(x,y)" for i in range(4))
    CHAIN_FACTS = "".join(f"H0(c{i},d{i}).\n" for i in range(9))

    @staticmethod
    def _spy(monkeypatch, rules, facts, variant="semi-oblivious"):
        """Run 2 process workers; return ``(tgds, rounds)`` where a round is
        ``(delta, {worker: (replicated atoms, (plan_id, atom) seeds)})``, the
        delta and the replicated rows read back as atoms."""
        from repro.chase import parallel

        rounds = []
        real_call = parallel._CoordinatorStep.__call__
        real_send = parallel._ProcessPool._send

        def leaves(value):
            if isinstance(value, (tuple, list)):
                for item in value:
                    yield from leaves(item)
            else:
                yield value

        def call(step, round_index, delta):
            rounds.append(([Atom(p, row) for p, rows in delta.items() for row in rows], {}))
            return real_call(step, round_index, delta)

        def send(pool, worker_id, message):
            if message[0] == "delta":
                wire = pool._wires[worker_id]
                assert all(
                    value is None or isinstance(value, (int, str, type))
                    for value in leaves(message)
                ), message
                entries = parallel._PlanTable(tgds).entries
                seeds = [
                    (plan_id, Atom(entries[plan_id].seed_predicate, terms))
                    for plan_id, terms in wire.decode(message[3])
                ]
                replicated = [
                    Atom(predicate, row)
                    for predicate, rows in wire.decode_rows(message[2]).items()
                    for row in rows
                ]
                rounds[-1][1][worker_id] = (replicated, seeds)
            return real_send(pool, worker_id, message)

        monkeypatch.setattr(parallel._CoordinatorStep, "__call__", call)
        monkeypatch.setattr(parallel._ProcessPool, "_send", send)
        tgds = tuple(parse_rules(rules))
        database = parse_database(facts)
        result = parallel_chase(database, tgds, variant=variant, workers=2, executor="process")
        assert _fingerprint(result) == _fingerprint(chase(database, tgds, variant=variant))
        return tgds, [entry for entry in rounds if entry[1]]

    @pytest.mark.parametrize("variant", ("semi-oblivious", "restricted"))
    def test_a_replica_gets_the_full_predicates_and_its_own_seeds_only(
        self, monkeypatch, variant
    ):
        from repro.chase.parallel import _PlanTable, replica_seed_split
        from repro.core.indexing import row_partition_of

        tgds, rounds = self._spy(monkeypatch, self.MIXED, self.MIXED_FACTS, variant)
        full, partitioned = replica_seed_split(tgds, variant)
        # restricted: the head check reads every head relation, so all are full
        names = {"semi-oblivious": ({"B", "D"}, {"A", "C", "E"}), "restricted": (set("ABCDEF"), set())}
        assert ({p.name for p in full}, {p.name for p in partitioned}) == names[variant]
        table = _PlanTable(tgds)
        assert len(rounds) > 2
        for delta, messages in rounds:
            assert sorted(messages) == [0, 1]
            for worker_id, (replicated, seeds) in messages.items():
                assert replicated == [atom for atom in delta if atom.predicate in full]
                assert seeds == [
                    (entry.plan_id, atom)
                    for atom in delta
                    for entry in table.by_predicate.get(atom.predicate, ())
                    if row_partition_of(atom.terms, entry.plan.partition_positions, 2)
                    == worker_id
                ]
            shipped = {atom for replicated, seeds in messages.values() for atom in replicated}
            shipped.update(atom for _, seeds in messages.values() for _, atom in seeds)
            # F is read by no rule: its atoms are never sent
            assert shipped == {a for a in delta if a.predicate in full | partitioned}

    def test_a_linear_program_replicates_nothing_and_partitions_every_delta(self, monkeypatch):
        tgds, rounds = self._spy(monkeypatch, self.CHAIN, self.CHAIN_FACTS)
        assert len(rounds) == 4
        for delta, messages in rounds:
            shares = [[atom for _, atom in seeds] for _, seeds in messages.values()]
            assert all(replicated == [] for replicated, _ in messages.values())
            assert not set(shares[0]) & set(shares[1])
            read = [atom for atom in delta if atom.predicate.name != "H4"]  # H4: read by no rule
            assert sorted(shares[0] + shares[1]) == read
        assert all(shares for shares in rounds[0][1].values())
