"""Unit tests for the shuffle exchange: routing, framing, skew, crash recovery.

The conformance property suite sweeps random programs across the exchange
axis; this file pins the exchange machinery itself — the repartition
routing table, the peer-channel framing protocol, the skew detector — and
the crash-mid-exchange persistence guarantee on sqlite backends.
"""

import os
import subprocess
import sys

import pytest

from repro.chase.engine import chase, make_backend_store
from repro.chase.exchange import (
    EXCHANGES,
    FrameAssembler,
    RoutingTable,
    SkewDetector,
    iter_frames,
    parse_crash_spec,
)
from repro.chase.matching import JoinPlan
from repro.chase.parallel import parallel_chase
from repro.chase.result import ChaseLimits
from repro.core.atoms import Atom
from repro.core.indexing import key_partition_of, stable_key_hash
from repro.core.parser import parse_atom, parse_database, parse_rules
from repro.core.predicates import Predicate
from repro.core.terms import Constant, Variable
from repro.generators import generate_skew_workload
from repro.obs.events import ListTraceSink, validate_event
from repro.obs.tracer import Tracer
from repro.storage.sqlbackend import SqliteAtomStore

from tests.chase.test_differential import random_case
from tests.helpers import chase_result_fingerprint as _fingerprint

LIMITS = ChaseLimits(max_atoms=400, max_rounds=12)


def _ground(text: str) -> Atom:
    return parse_atom(text, as_variable=False)


def _join_plan() -> JoinPlan:
    k, v, d = Variable("K"), Variable("V"), Variable("D")
    mid = Predicate("mid", 2)
    dim = Predicate("dim", 2)
    return JoinPlan((Atom(mid, (k, v)), Atom(dim, (k, d))), 0)


class TestStableKeyHash:
    def test_deterministic_and_type_tagged(self):
        key = (2, ("semi", (Constant("a"), Constant("b"))))
        assert stable_key_hash(key) == stable_key_hash(key)
        # int vs string vs bool leaves must not collide via str() flattening
        assert stable_key_hash((1,)) != stable_key_hash(("1",))
        assert stable_key_hash((True,)) != stable_key_hash((1,))

    def test_nesting_is_significant(self):
        flat = (1, 2, 3)
        nested = (1, (2, 3))
        assert stable_key_hash(flat) != stable_key_hash(nested)

    def test_rejects_unhashable_leaf_types(self):
        with pytest.raises(TypeError):
            stable_key_hash((1, object()))

    def test_key_partition_bounds(self):
        for n_workers in (1, 2, 3, 7):
            for seed in range(20):
                owner = key_partition_of((seed, "k"), n_workers)
                assert 0 <= owner < n_workers
        assert key_partition_of((5, "x"), 1) == 0


class TestRoutingTable:
    def test_every_unit_has_exactly_one_owner(self):
        plan = _join_plan()
        table = RoutingTable(4, (plan.partition_positions,))
        atoms = [_ground(f"mid(k{i % 3}, v{i})") for i in range(30)]
        for atom in atoms:
            owners = {table.work_owner(0, atom)}
            assert len(owners) == 1
            assert 0 <= owners.pop() < 4
            assert 0 <= table.atom_owner(atom) < 4
        # co-location: same join key, same worker (no heavy table)
        by_key = {}
        for atom in atoms:
            by_key.setdefault(atom.terms[0], set()).add(table.work_owner(0, atom))
        assert all(len(owners) == 1 for owners in by_key.values())

    def test_heavy_split_spreads_then_reunifies(self):
        plan = _join_plan()
        table = RoutingTable(4, (plan.partition_positions,))
        heavy_key = [_ground(f"mid(hub, v{i})") for i in range(64)]
        route = table.plan_route_hash(0, heavy_key[0])
        plain_owner = table.work_owner(0, heavy_key[0])
        table.set_heavy(((((0, route)), (0, 1, 2, 3)),))
        split_owners = {table.work_owner(0, atom) for atom in heavy_key}
        assert len(split_owners) > 1, "heavy key must spread across workers"
        # the split moves only *work*: key and atom ownership — where the
        # global dedups reunify duplicates — never consult the heavy table
        for atom in heavy_key:
            assert table.atom_owner(atom) == RoutingTable(
                4, (plan.partition_positions,)
            ).atom_owner(atom)
        # splitting is deterministic: same atom, same split member
        again = RoutingTable(
            4, (plan.partition_positions,), ((((0, route)), (0, 1, 2, 3)),)
        )
        for atom in heavy_key:
            assert again.work_owner(0, atom) == table.work_owner(0, atom)
        table.set_heavy(())
        assert table.work_owner(0, heavy_key[0]) == plain_owner

    def test_heavy_routes_roundtrip_as_plain_tuples(self):
        table = RoutingTable(2, ((0,),), (((0, 99), (0, 1)),))
        assert table.heavy_routes == (((0, 99), (0, 1)),)
        rebuilt = RoutingTable(2, ((0,),), table.heavy_routes)
        assert rebuilt.heavy_routes == table.heavy_routes

    def test_rejects_empty_worker_pool(self):
        with pytest.raises(ValueError):
            RoutingTable(0, ())


class TestFraming:
    def test_empty_payload_still_sends_one_frame(self):
        frames = list(iter_frames(3, "route", 1, []))
        assert len(frames) == 1
        assert frames[0] == (3, "route", 1, 0, 1, ())

    def test_chunking_and_in_order_reassembly(self):
        items = list(range(25))
        frames = list(iter_frames(0, "keys", 2, items, chunk_size=10))
        assert [len(frame[5]) for frame in frames] == [10, 10, 5]
        assembler = FrameAssembler()
        for frame in frames[:-1]:
            assert assembler.feed(frame) is None
        assert assembler.feed(frames[-1]) == (0, "keys", 2)
        assert assembler.pop(0, "keys", 2) == items

    def test_out_of_order_frames_reassemble(self):
        items = list(range(12))
        frames = list(iter_frames(1, "atoms", 0, items, chunk_size=5))
        assembler = FrameAssembler()
        assembler.feed(frames[2])
        assembler.feed(frames[0])
        assert assembler.pop(1, "atoms", 0) is None  # still incomplete
        assert assembler.feed(frames[1]) == (1, "atoms", 0)
        assert assembler.pop(1, "atoms", 0) == items

    def test_streams_from_later_phases_buffer_independently(self):
        assembler = FrameAssembler()
        early = next(iter_frames(0, "route", 1, ["a"]))
        late = next(iter_frames(0, "atoms", 1, ["z"]))
        assert assembler.feed(late) == (0, "atoms", 1)
        assert assembler.feed(early) == (0, "route", 1)
        assert assembler.pop(0, "route", 1) == ["a"]
        assert assembler.pop(0, "atoms", 1) == ["z"]

    def test_duplicate_chunk_is_an_error(self):
        frame = next(iter_frames(0, "route", 0, ["x"], chunk_size=1))
        assembler = FrameAssembler()
        assembler.feed(frame)
        # completed streams stay poppable, but replays of a pending chunk fail
        frames = list(iter_frames(0, "keys", 0, ["a", "b"], chunk_size=1))
        assembler.feed(frames[0])
        with pytest.raises(ValueError, match="duplicate chunk"):
            assembler.feed(frames[0])

    def test_inconsistent_chunk_count_is_an_error(self):
        assembler = FrameAssembler()
        assembler.feed((0, "route", 0, 0, 3, ("a",)))
        with pytest.raises(ValueError, match="announced 3 chunks"):
            assembler.feed((0, "route", 0, 1, 2, ("b",)))

    def test_malformed_frame_is_an_error(self):
        assembler = FrameAssembler()
        with pytest.raises(ValueError, match="malformed"):
            assembler.feed((0, "route", 0, 2, 2, ()))
        with pytest.raises(ValueError, match="malformed"):
            assembler.feed((0, "route", 0, 0, 0, ()))

    def test_rejects_nonpositive_chunk_size(self):
        with pytest.raises(ValueError):
            list(iter_frames(0, "route", 0, ["x"], chunk_size=0))


class TestSkewDetector:
    def _delta(self, heavy: int, light: int):
        atoms = [_ground(f"mid(hub, v{i})") for i in range(heavy)]
        atoms += [_ground(f"mid(k{i}, w{i})") for i in range(light)]
        return atoms

    def _detector(self, n_workers=4, **kwargs):
        plan = _join_plan()
        return SkewDetector(
            [(7, plan.body[0].predicate, plan.partition_positions)],
            n_workers,
            **kwargs,
        )

    def test_heavy_hub_is_flagged_with_full_split(self):
        detector = self._detector()
        heavy = detector.heavy_routes(self._delta(heavy=60, light=12))
        assert len(heavy) == 1
        (plan_id, _), split = heavy[0]
        assert plan_id == 7
        assert split == (0, 1, 2, 3)

    def test_balanced_delta_is_not_flagged(self):
        detector = self._detector()
        atoms = [_ground(f"mid(k{i % 8}, v{i})") for i in range(64)]
        assert detector.heavy_routes(atoms) == ()

    def test_min_count_floor_suppresses_tiny_routes(self):
        detector = self._detector(min_count=16)
        # 10 atoms all on one key: dominant share but below the floor
        assert detector.heavy_routes(self._delta(heavy=10, light=2)) == ()

    def test_single_worker_never_splits(self):
        detector = self._detector(n_workers=1)
        assert detector.heavy_routes(self._delta(heavy=100, light=0)) == ()

    def test_linear_plans_are_ignored(self):
        # no join key -> nothing to split, whatever the distribution
        detector = SkewDetector([(0, Predicate("mid", 2), ())], 4)
        assert detector.heavy_routes(self._delta(heavy=100, light=0)) == ()

    def test_detection_is_deterministic(self):
        delta = self._delta(heavy=50, light=10)
        assert self._detector().heavy_routes(delta) == self._detector().heavy_routes(
            delta
        )

    def test_histograms_feed_the_metrics_registry(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        detector = self._detector(metrics=registry)
        detector.heavy_routes(self._delta(heavy=40, light=8))
        snapshot = registry.snapshot()
        histograms = snapshot.get("histograms", [])
        assert any(
            entry["name"] == "exchange_partition_delta" for entry in histograms
        )


class TestParseCrashSpec:
    def test_shapes(self):
        assert parse_crash_spec(None) is None
        assert parse_crash_spec("") is None
        assert parse_crash_spec("3") == (3, None)
        assert parse_crash_spec("2:1") == (2, 1)


class TestShuffleConformance:
    @pytest.mark.parametrize("seed", range(4))
    def test_shuffle_matches_coordinator_and_serial(self, seed):
        database, tgds = random_case(seed)
        expected = _fingerprint(chase(database, tgds, limits=LIMITS))
        for workers in (1, 2, 4):
            coordinator = parallel_chase(
                database, tgds, workers=workers, limits=LIMITS
            )
            shuffled = parallel_chase(
                database, tgds, workers=workers, limits=LIMITS, exchange="shuffle"
            )
            assert _fingerprint(coordinator) == expected
            assert _fingerprint(shuffled) == expected

    @pytest.mark.parametrize("executor", ("thread", "process"))
    def test_skew_split_active_and_result_identical(self, executor):
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
            exchange="shuffle",
            tracer=tracer,
        )
        tracer.close()
        assert _fingerprint(result) == expected
        for event in sink.events:
            validate_event(event)
        repartitions = [e for e in sink.events if e["type"] == "repartition"]
        assert repartitions, "the skewed workload must trip the heavy split"
        assert all(e["workers"] == [0, 1, 2, 3] for e in repartitions)
        exchanges = [e for e in sink.events if e["type"] == "exchange"]
        assert {e["worker"] for e in exchanges} == {0, 1, 2, 3}

    def test_budgets_match_coordinator_semantics(self):
        database = parse_database("R(a,b).")
        tgds = parse_rules("R(x,y) -> R(y,z)")
        for limits in (ChaseLimits(max_atoms=10), ChaseLimits(max_rounds=3)):
            expected = _fingerprint(
                parallel_chase(database, tgds, workers=2, limits=limits)
            )
            shuffled = parallel_chase(
                database, tgds, workers=2, limits=limits, exchange="shuffle"
            )
            assert not shuffled.terminated
            assert _fingerprint(shuffled) == expected

    def test_chase_api_passthrough(self):
        database, tgds = random_case(1)
        expected = _fingerprint(chase(database, tgds, limits=LIMITS))
        result = chase(
            database, tgds, limits=LIMITS, workers=2, exchange="shuffle"
        )
        assert _fingerprint(result) == expected

    def test_unknown_exchange_is_rejected(self):
        database, tgds = random_case(0)
        with pytest.raises(ValueError, match="exchange"):
            parallel_chase(database, tgds, workers=2, exchange="gossip")
        assert EXCHANGES == ("coordinator", "shuffle")


class TestCrashMidExchange:
    """A crash between phases must leave a resumable prefix on disk."""

    def _program(self):
        database = parse_database("\n".join(f"edge(n{i}, n{i + 1})." for i in range(6)))
        tgds = parse_rules(
            """
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
            """
        )
        return database, tgds

    @pytest.mark.parametrize("executor", ("serial", "process"))
    def test_crash_leaves_resumable_sqlite_prefix(self, tmp_path, monkeypatch, executor):
        database, tgds = self._program()
        fresh = chase(database, tgds)
        path = str(tmp_path / f"crash-{executor}.db")
        store = make_backend_store(f"sqlite:{path}")
        monkeypatch.setenv("REPRO_EXCHANGE_CRASH", "1")
        with pytest.raises(RuntimeError, match="injected exchange crash|worker failed"):
            parallel_chase(
                database,
                tgds,
                workers=2,
                executor=executor,
                store=store,
                exchange="shuffle",
            )
        store.close()
        monkeypatch.delenv("REPRO_EXCHANGE_CRASH")
        with SqliteAtomStore(path=path) as reopened:
            persisted = set(map(str, reopened.iter_atoms()))
        # the prefix holds the seed plus round 1, and nothing bogus
        assert persisted > set(map(str, database.atoms()))
        assert persisted <= set(map(str, fresh.instance))
        # resuming over the reopened file reaches the uninterrupted fixpoint
        resumed = chase(database, tgds, store=SqliteAtomStore(path=path))
        assert resumed.terminated
        assert sorted(map(str, resumed.instance)) == sorted(map(str, fresh.instance))
        resumed.store.close()

    #: Runs the crashing chase in a child interpreter, so a coordinator that
    #: hangs on a wedged worker fails the test by timeout instead of hanging
    #: the suite.  argv: the sqlite path.
    CRASH_SCRIPT = """
import multiprocessing, sys
from repro.chase.engine import make_backend_store
from repro.chase.parallel import parallel_chase
from repro.core.parser import parse_database, parse_rules

database = parse_database("\\n".join(f"edge(n{i}, n{i + 1})." for i in range(6)))
tgds = parse_rules("path(X, Y) :- edge(X, Y).\\npath(X, Z) :- path(X, Y), edge(Y, Z).")
store = make_backend_store("sqlite:" + sys.argv[1])
try:
    parallel_chase(
        database, tgds, workers=2, executor="process", store=store, exchange="shuffle"
    )
except RuntimeError as error:
    print("RuntimeError:", str(error).splitlines()[0])
store.close()
print("orphans:", len(multiprocessing.active_children()))
"""

    @pytest.mark.parametrize("victim", (0, 1))
    def test_either_failed_process_worker_fails_the_run_promptly(self, tmp_path, victim):
        # Worker 0 is the regression: it used to leave the coordinator
        # blocked on worker 0's pipe while worker 0 waited for its dead
        # peer's frames (with victim 1), forever.
        database, tgds = self._program()
        fresh = chase(database, tgds)
        path = str(tmp_path / f"crash-victim-{victim}.db")
        environment = dict(os.environ, REPRO_EXCHANGE_CRASH=f"1:{victim}")
        environment["PYTHONPATH"] = os.pathsep.join(sys.path)
        finished = subprocess.run(
            [sys.executable, "-c", self.CRASH_SCRIPT, path],
            env=environment, capture_output=True, text=True, timeout=30,
        )
        assert finished.returncode == 0, finished.stderr
        assert f"RuntimeError: parallel chase worker {victim} failed:" in finished.stdout
        assert "orphans: 0" in finished.stdout
        with SqliteAtomStore(path=path) as reopened:
            persisted = set(map(str, reopened.iter_atoms()))
        assert set(map(str, database.atoms())) < persisted <= set(map(str, fresh.instance))
        resumed = chase(database, tgds, store=SqliteAtomStore(path=path))
        assert resumed.terminated
        assert sorted(map(str, resumed.instance)) == sorted(map(str, fresh.instance))
        resumed.store.close()

    def test_targeted_crash_spec_hits_one_worker(self, tmp_path, monkeypatch):
        database, tgds = self._program()
        path = str(tmp_path / "crash-one.db")
        store = make_backend_store(f"sqlite:{path}")
        monkeypatch.setenv("REPRO_EXCHANGE_CRASH", "1:0")
        with pytest.raises(RuntimeError):
            parallel_chase(
                database,
                tgds,
                workers=2,
                executor="serial",
                store=store,
                exchange="shuffle",
            )
        store.close()
        monkeypatch.delenv("REPRO_EXCHANGE_CRASH")
        with SqliteAtomStore(path=path) as reopened:
            assert reopened.atom_count() > len(database)
