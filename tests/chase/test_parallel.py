"""Tests for the hash-partitioned parallel chase executor.

The property suite (``tests/property/``) sweeps random programs; this file
pins the executor's API surface — worker pools, backends, budgets, error
paths — and the determinism claim on the literature scenarios.
"""

import multiprocessing
import os
import subprocess
import sys
import threading

import pytest

from repro.chase.engine import chase, make_backend_store
from repro.chase.exchange import EXCHANGES
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
from repro.generators import generate_skew_workload
from repro.obs.events import ListTraceSink, validate_event
from repro.obs.tracer import Tracer
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

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "executor, backend",
        (("serial", "sqlite"), ("process", "instance"), ("process", "sqlite")),
    )
    def test_every_pool_and_backend_matches_serial(self, executor, backend, seed):
        database, tgds = random_case(seed)
        expected = _fingerprint(chase(database, tgds, limits=LIMITS))
        for workers in (2, 4):
            result = parallel_chase(
                database, tgds, workers=workers, limits=LIMITS, executor=executor,
                backend=backend,
            )
            assert _fingerprint(result) == expected, f"workers={workers}"


class TestSkewWorkload:
    """The heavy-hitter workload the benchmark's ``chase_skew_par2`` runs:
    one hub key concentrates the star join on the worker that owns it, and
    the coordinator merge still reproduces the serial result."""

    @pytest.mark.parametrize("executor", ("serial", "process"))
    def test_hub_worker_carries_the_join_and_the_result_is_serial(self, executor):
        workload = generate_skew_workload(n_keys=8, rows=192, skew=1.5)
        limits = ChaseLimits(max_atoms=5_000, max_rounds=10)
        expected = _fingerprint(chase(workload.database, workload.tgds, limits=limits))
        sink = ListTraceSink()
        tracer = Tracer(sink, tool="chase")
        result = parallel_chase(
            workload.database,
            workload.tgds,
            workers=4,
            executor=executor,
            backend="sqlite" if executor == "process" else "instance",
            limits=limits,
            tracer=tracer,
        )
        tracer.close()
        assert _fingerprint(result) == expected
        for event in sink.events:
            validate_event(event)
        rounds = {e["round"]: e for e in sink.events if e["type"] == "round"}
        by_round = {}
        for event in sink.events:
            if event["type"] == "worker_round":
                by_round.setdefault(event["round"], {})[event["worker"]] = event
        assert set(by_round) == set(rounds)
        for number, workers in by_round.items():
            assert set(workers) == {0, 1, 2, 3}
            assert sum(w["fired"] for w in workers.values()) == rounds[number]["fired"]
        # Round 2 is the star join: the hub key's matches all land on one worker.
        (_, heaviest), *_ = workload.key_counts
        join = by_round[2]
        assert max(w["considered"] for w in join.values()) >= heaviest * workload.fan_out


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

    @pytest.mark.parametrize(
        "limits", (ChaseLimits(max_atoms=10), ChaseLimits(max_rounds=3)), ids=("atoms", "rounds")
    )
    @pytest.mark.parametrize(
        "executor, backend",
        (("serial", "sqlite"), ("process", "instance"), ("process", "sqlite")),
    )
    def test_budget_stops_match_the_serial_engine(self, executor, backend, limits):
        database = parse_database("R(a,b).")
        tgds = parse_rules("R(x,y) -> R(y,z)")
        serial = chase(database, tgds, limits=limits)
        result = parallel_chase(
            database, tgds, workers=2, limits=limits, executor=executor, backend=backend
        )
        assert not result.terminated
        assert (result.stop_reason, result.rounds) == (serial.stop_reason, serial.rounds)
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
        # Only parallel_chase takes exchange=, and only the names in EXCHANGES.
        with pytest.raises(ValueError, match="exchange must be one of"):
            parallel_chase(database, tgds, exchange="gossip")
        coordinator = _fingerprint(parallel_chase(database, tgds))
        for exchange in EXCHANGES:  # each name runs the coordinator merge
            assert _fingerprint(parallel_chase(database, tgds, exchange=exchange)) == coordinator

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

    def _pool(self):
        store = Instance(self.DATABASE.atoms())
        executor = ParallelChaseExecutor(workers=2, executor="process")
        return executor._make_pool(self.TGDS, store, None)

    @staticmethod
    def _round(pool, index):
        return pool.initial() if index == 0 else pool.delta({}, ((), ()))

    @pytest.mark.parametrize("when", ("before-first-round", "after-first-round"))
    def test_killed_worker_surfaces_as_the_documented_error(self, when):
        pool = self._pool()
        try:
            next_round = 0
            if when == "after-first-round":
                assert len(self._round(pool, 0)) == 2
                next_round = 1
            victim = pool._processes[1]
            victim.kill()
            victim.join(timeout=10)
            with pytest.raises(
                RuntimeError, match=r"parallel chase worker 1 failed.*exited with code -9"
            ):
                self._round(pool, next_round)
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


def _forked_workers_only(executor):
    if executor == "process" and multiprocessing.get_start_method() != "fork":
        pytest.skip("process workers inherit the patched class only when forked")


class TestCrashMidRun:
    """A worker that raises mid-run fails the run with the documented error
    and leaves a resumable prefix in a persistent sqlite store."""

    DATABASE = parse_database("\n".join(f"edge(n{i}, n{i + 1})." for i in range(6)))
    TGDS = parse_rules(
        """
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- path(X, Y), edge(Y, Z).
        """
    )

    def _assert_resumable(self, path):
        fresh = chase(self.DATABASE, self.TGDS)
        with SqliteAtomStore(path=path) as reopened:
            persisted = set(map(str, reopened.iter_atoms()))
        # the prefix holds the seed plus round 1, and nothing bogus
        assert set(map(str, self.DATABASE.atoms())) < persisted <= set(map(str, fresh.instance))
        # resuming over the reopened file reaches the uninterrupted fixpoint
        resumed = chase(self.DATABASE, self.TGDS, store=SqliteAtomStore(path=path))
        assert resumed.terminated
        assert sorted(map(str, resumed.instance)) == sorted(map(str, fresh.instance))
        resumed.store.close()

    @pytest.mark.parametrize("executor", ("serial", "process"))
    def test_crash_leaves_resumable_sqlite_prefix(self, tmp_path, monkeypatch, executor):
        from repro.chase import parallel

        _forked_workers_only(executor)

        def crash(worker, *args):
            raise RuntimeError(f"injected crash (worker {worker.worker_id})")

        monkeypatch.setattr(parallel._MatchWorker, "_delta_round", crash)
        path = str(tmp_path / f"crash-{executor}.db")
        store = make_backend_store(f"sqlite:{path}")
        with pytest.raises(RuntimeError, match=r"parallel chase worker \d failed.*injected crash"):
            parallel_chase(self.DATABASE, self.TGDS, workers=2, executor=executor, store=store)
        store.close()
        monkeypatch.undo()
        self._assert_resumable(path)

    #: Runs the crashing chase in a child interpreter, so a coordinator that
    #: hangs on a wedged worker fails the test by timeout instead of hanging
    #: the suite.  argv: the sqlite path and the worker that raises.
    CRASH_SCRIPT = """
import multiprocessing, sys
from repro.chase import parallel
from repro.chase.engine import make_backend_store
from repro.core.parser import parse_database, parse_rules

victim = int(sys.argv[2])
real_delta_round = parallel._MatchWorker._delta_round

def crash_the_victim(worker, *args):
    if worker.worker_id == victim:
        raise RuntimeError("injected crash")
    return real_delta_round(worker, *args)

parallel._MatchWorker._delta_round = crash_the_victim
database = parse_database("\\n".join(f"edge(n{i}, n{i + 1})." for i in range(6)))
tgds = parse_rules("path(X, Y) :- edge(X, Y).\\npath(X, Z) :- path(X, Y), edge(Y, Z).")
store = make_backend_store("sqlite:" + sys.argv[1])
try:
    parallel.parallel_chase(database, tgds, workers=2, executor="process", store=store)
except RuntimeError as error:
    print("RuntimeError:", str(error).splitlines()[0])
store.close()
print("orphans:", len(multiprocessing.active_children()))
"""

    @pytest.mark.parametrize("victim", (0, 1))
    def test_either_failed_process_worker_fails_the_run_promptly(self, tmp_path, victim):
        _forked_workers_only("process")
        path = str(tmp_path / f"crash-victim-{victim}.db")
        environment = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        finished = subprocess.run(
            [sys.executable, "-c", self.CRASH_SCRIPT, path, str(victim)],
            env=environment, capture_output=True, text=True, timeout=60,
        )
        assert finished.returncode == 0, finished.stderr
        assert finished.stdout.splitlines() == [
            f"RuntimeError: parallel chase worker {victim} failed: RuntimeError: injected crash",
            "orphans: 0",
        ]
        self._assert_resumable(path)


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
