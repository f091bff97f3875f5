"""Hash-partitioned parallel chase execution.

The serial engines of :mod:`repro.chase.engine` spend each breadth-first
round matching TGD bodies against the round's delta atoms — an
embarrassingly parallel join.  This module fans that matching out across a
worker pool the way the shared-nothing parallel-join literature (K-Join,
near-optimal parallel binary joins) distributes probe work:

* **partitioning** — every unit of match work is a ``(JoinPlan, seed row)``
  pair; it is assigned to the worker owning the stable hash of the seed
  row's terms at the plan's join-key positions
  (:attr:`~repro.chase.matching.JoinPlan.partition_positions`), so seeds
  sharing a join key land on the same worker.  Round 0 does not ship seed
  work: each worker matches from its own partition of every seed relation
  (:func:`~repro.core.indexing.partition_rows` over ``rows_matching``);
* **workers** — in-process partition workers run one after another on
  the coordinator's thread against its store (one thread per store: a
  :class:`~repro.storage.sqlbackend.SqliteAtomStore` connection refuses
  any other), or processes each holding an in-memory
  :class:`~repro.core.instances.Instance` replica, whatever the
  coordinator's store (a SQLite connection never crosses a process
  boundary).  A replica is built from a seed streamed through the worker
  pipe in chunks, holding only the relations the TGD set makes it
  responsible for (:func:`worker_seed_atoms`): relations joined by
  multi-atom bodies in full, single-atom-body relations only in the
  worker's own hash partition, everything else not at all; of each round's
  merged delta it receives what :func:`replica_seed_split` says it reads.
  Only processes give the pure-Python matching more than one core;
  ``executor="process"`` works for any backend;
* **deterministic merge** — workers report the *firing keys* they
  considered and, per fired key, the trigger's value row — witness images,
  then invented nulls (ints on a process pipe) — that the coordinator
  expands into head rows through the rule's one ``FiringPlan`` and inserts
  as rows.  Because firing keys, head rows, and invented nulls are all
  functions of the key alone
  (content-addressed :class:`~repro.core.terms.NullFactory` naming), the
  merged round is a set union that does not depend on worker count,
  scheduling, or enumeration order — the ``ChaseResult`` (atoms, null
  names, rounds, trigger counts) is *identical* to the serial engine's.

The coordinator owns the authoritative store; workers never mutate shared
state beyond their own replica.  The round loop itself — budgets, sorted
insertion, flushes, ``round``/``rule_round`` events, the result — is the
shared driver's (:func:`repro.chase.rounds.run_rounds`): the coordinator
merge is only a *round step* plugged into it (:class:`_CoordinatorStep`)
over one of two pools (:class:`_LocalPool` in-process, :class:`_ProcessPool`
with replicas).
"""

from __future__ import annotations

import multiprocessing
import traceback
from functools import partial
from multiprocessing.connection import Connection, wait
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
    cast,
)

from ..core.atoms import Atom, atom_sort_key
from ..core.indexing import Row, partition_rows, row_partition_of
from ..core.instances import Database, Instance
from ..core.predicates import Predicate
from ..core.terms import Null, NullFactory, Term
from ..core.tgds import TGD, TGDSet
from ..exceptions import ParallelWorkerError
from ..obs.clock import MonotonicClock
from ..obs.tracer import AnyTracer, as_tracer
from ..storage.atom_store import AtomStore
from .engine import ChaseEngine, make_backend_store, resolve_engine_class
from .exchange import EXCHANGES
from .matching import JoinPlan
from .result import ChaseLimits, ChaseResult
from .rounds import Delta, RoundOutcome, RuleRow, insert_rows, run_rounds, seed_store
from .triggers import FiringKey, FiringPlan

_T = TypeVar("_T")

#: Worker backends accepted by :func:`parallel_chase`.
EXECUTORS = ("auto", "serial", "process")

#: The match half of a worker's report: the firing keys it considered (new
#: to it) and, for the keys that passed the variant's firing policy, the
#: trigger's value row (:meth:`FiringPlan.values`).
MatchBatch = Tuple[List[object], List[Tuple[object, Any]]]

#: A replica's work of a round: ``(plan id, seed row)`` pairs.
Seeds = Sequence[Tuple[int, Row]]

#: Per-round observability payload attached when the coordinator runs
#: traced: ``(worker_id, seconds, considered, fired)`` — one
#: ``worker_round`` event.
WorkerMetrics = Tuple[int, float, int, int]

#: A worker's report for one round: the match batch plus, on traced runs,
#: the worker's metrics payload (``None`` otherwise).  Metrics ride the
#: same pipe message as the match results, so tracing adds no protocol
#: round-trips.
RoundReport = Tuple[List[object], List[Tuple[object, Any]], Optional[WorkerMetrics]]

#: The int form of a sequence of ``(lead, terms)`` rows on a control pipe:
#: runs of ``[lead, row count, flat symbol ids]``.  Rows under one lead are
#: equally wide, so the count recovers the width — and keeps zero-width rows.
Runs = List[List[Any]]


def _key_rule(key: object) -> int:
    """The TGD index a firing key attributes to (every key kind leads with it)."""
    return cast(Tuple[int, object], key)[0]


class _PlanEntry:
    """One (TGD, body slot) join plan with its stable identifier."""

    __slots__ = ("plan_id", "tgd_index", "plan", "seed_predicate")

    def __init__(self, plan_id: int, tgd_index: int, plan: JoinPlan) -> None:
        self.plan_id = plan_id
        self.tgd_index = tgd_index
        self.plan = plan
        self.seed_predicate = plan.body[plan.seed_slot][0]


class _PlanTable:
    """All join plans of a TGD set, keyed identically in every worker.

    Plan ids are assigned in (TGD, slot) order, so a coordinator and its
    process replicas — each building the table from the same TGD tuple —
    agree on what every ``plan_id`` in a work item refers to.
    """

    def __init__(self, tgds: Sequence[TGD]) -> None:
        self.tgds = tuple(tgds)
        self.entries: List[_PlanEntry] = []
        self.by_predicate: Dict[object, List[_PlanEntry]] = {}
        self.initial_entries: List[_PlanEntry] = []
        for tgd_index, tgd in enumerate(self.tgds):
            for slot, (predicate, _) in enumerate(tgd.rule.body):
                entry = _PlanEntry(len(self.entries), tgd_index, JoinPlan(tgd.rule, slot))
                self.entries.append(entry)
                self.by_predicate.setdefault(predicate, []).append(entry)
                if slot == 0:
                    self.initial_entries.append(entry)


class _MatchWorker:
    """Trigger matching over one partition of the round's work.

    Runs inline against the coordinator's store (serial mode) or inside a
    worker process against a private replica (process mode).
    ``reported_keys`` caches the firing keys this worker has already sent
    upstream so it never reports the same key twice; the coordinator still
    performs the authoritative cross-worker dedup.
    """

    def __init__(
        self,
        worker_id: int,
        n_workers: int,
        tgds: Sequence[TGD],
        variant: str,
        store: AtomStore,
        collect_metrics: bool = False,
    ) -> None:
        self.worker_id = worker_id
        self.n_workers = n_workers
        self.store = store
        self.table = _PlanTable(tgds)
        self.policy: ChaseEngine = resolve_engine_class(variant)()
        self.firing_plans = [
            FiringPlan(tgd.rule, index, self.policy.null_scope)
            for index, tgd in enumerate(self.table.tgds)
        ]
        self.null_factory = NullFactory()
        self.reported_keys: Set[object] = set()
        self.collect_metrics = collect_metrics
        self.clock = MonotonicClock()

    def initial_round(self) -> RoundReport:
        """Run :meth:`_initial_round`, attaching metrics on traced runs."""
        started = self.clock.now()
        considered, fired = self._initial_round()
        return considered, fired, self.metrics(started, len(considered), len(fired))

    def delta_round(self, replicated: Delta, seeds: Seeds) -> RoundReport:
        """Run :meth:`_delta_round`, attaching metrics on traced runs."""
        started = self.clock.now()
        considered, fired = self._delta_round(replicated, seeds)
        return considered, fired, self.metrics(started, len(considered), len(fired))

    def metrics(self, started: float, considered: int, fired: int) -> Optional[WorkerMetrics]:
        """The traced-run payload of a round this worker began at *started*."""
        if not self.collect_metrics:
            return None
        return self.worker_id, self.clock.now() - started, considered, fired

    def _initial_round(self) -> MatchBatch:
        """Match every body homomorphism whose slot-0 atom this worker owns.

        Seeding only slot-0 plans (with no delta constraint) enumerates each
        homomorphism exactly once, and filtering the relation by partition
        splits that enumeration across workers without any coordinator
        shipping.
        """
        considered: List[object] = []
        fired: List[Tuple[object, Any]] = []
        for entry in self.table.initial_entries:
            plan = entry.plan
            seeds = partition_rows(
                self.store.rows_matching(entry.seed_predicate),
                plan.partition_positions,
                self.n_workers,
                self.worker_id,
            )
            for seed in seeds:
                for values in plan.matches(self.store, seed):
                    self._consider(entry, values, considered, fired)
        return considered, fired

    def _delta_round(self, replicated: Delta, seeds: Seeds) -> MatchBatch:
        """Execute this worker's share of one delta round.

        *seeds* are the ``(plan_id, seed row)`` pairs this worker owns: the
        seed rides inside the pair (a partitioned-relation row need not
        exist in this worker's replica at all).  *replicated* — the round's
        rows of fully-replicated predicates, which the store already holds
        — stands in for the full delta as the semi-naive exclusion set: only
        multi-atom-body predicates can occur at slots before a seed, so the
        constraint sees exactly the candidates it would have.
        """
        exclusion = {predicate: set(rows) for predicate, rows in replicated.items()}
        considered: List[object] = []
        fired: List[Tuple[object, Any]] = []
        for plan_id, seed in seeds:
            entry = self.table.entries[plan_id]
            for values in entry.plan.matches(self.store, seed, exclusion):
                self._consider(entry, values, considered, fired)
        return considered, fired

    def _consider(
        self,
        entry: _PlanEntry,
        values: Row,
        considered: List[object],
        fired: List[Tuple[object, Any]],
    ) -> None:
        plan = self.firing_plans[entry.tgd_index]
        key = plan.key(values)
        if key in self.reported_keys:
            return
        self.reported_keys.add(key)
        considered.append(key)
        if self.policy._should_fire(plan, key, self.store):
            fired.append((key, plan.values(key, self.null_factory)))


# --------------------------------------------------------------------------- #
# Replica seeding


def replica_seed_split(
    tgds: Sequence[TGD], variant: str
) -> Tuple[Set[Predicate], Set[Predicate]]:
    """Split the TGDs' predicates by what a process replica needs of them.

    Returns ``(full, partitioned)``:

    * *full* — predicates whose relation every replica must hold entirely:
      any predicate of a multi-atom body (the atom may be joined as a
      non-seed slot, whose candidates are unconstrained by the partition
      hash) and, under the restricted variant, any head predicate (the
      head-satisfaction check probes them);
    * *partitioned* — predicates that only ever seed single-atom bodies:
      their ``JoinPlan.partition_positions`` is the empty tuple (hash the
      whole atom), so worker ``w`` only ever scans its own hash partition
      and needs no other rows.

    Predicates in neither set are never read by replica-side matching and
    are not shipped at all.
    """
    full: Set[Predicate] = set()
    partitioned: Set[Predicate] = set()
    for tgd in tgds:
        rule = tgd.rule
        if len(rule.body) > 1:
            full.update(predicate for predicate, _ in rule.body)
        else:
            partitioned.add(rule.body[0][0])
        if variant == "restricted":
            full.update(predicate for predicate, _ in rule.head)
    return full, partitioned - full


def worker_seed_atoms(
    store: AtomStore,
    tgds: Sequence[TGD],
    variant: str,
    n_workers: int,
    worker_id: int,
    full_atoms: Optional[Sequence[Atom]] = None,
) -> List[Atom]:
    """The seed atoms one process replica actually needs.

    Instead of pickling ``sorted(store.iter_atoms())`` into every worker,
    relations are shipped per :func:`replica_seed_split`, so for a linear
    TGD set the workers' seeds partition the store instead of replicating
    it ``n_workers`` times.  The result is sorted (grouped by predicate),
    which keeps replica construction deterministic and lets the replica
    load each predicate as one ``add_rows`` batch.

    *full_atoms* optionally supplies the fully-replicated portion (the
    per-worker-invariant scan of the *full* predicates), so a coordinator
    seeding many workers collects it once instead of once per worker —
    see :func:`collect_full_seed_atoms`.
    """
    full, partitioned = replica_seed_split(tgds, variant)
    atoms: List[Atom] = (
        list(full_atoms)
        if full_atoms is not None
        else collect_full_seed_atoms(store, full)
    )
    for predicate in sorted(partitioned):
        atoms.extend(
            Atom(predicate, row)
            for row in partition_rows(store.rows_matching(predicate), (), n_workers, worker_id)
        )
    return sorted(atoms, key=atom_sort_key)


def collect_full_seed_atoms(
    store: AtomStore, full_predicates: Iterable[Predicate]
) -> List[Atom]:
    """Scan the fully-replicated relations once (shared by every worker)."""
    return [
        Atom(predicate, row)
        for predicate in full_predicates
        for row in store.rows_matching(predicate)
    ]


#: Atoms per ``("seed", fresh, runs)`` message: bounds the size of any single
#: pickled payload crossing a worker pipe (the full store is never shipped
#: as one object).
SEED_CHUNK_ATOMS = 4096


class _Wire(Dict[Any, int]):
    """One end of a control pipe's symbol dictionary: term or predicate → id.

    The control pipe is strictly request/response, so its two ends grow the
    same table in lock-step: the sender numbers a symbol the first time it
    encodes one (``__missing__``) and the symbol's ``(class, constructor
    arguments)`` entry rides the very message that uses it
    (:meth:`take_fresh`); the receiver :meth:`absorb`s the entries — through
    the public constructors — before it decodes.  Everything else on the
    pipe is ints.  *interned* is shared by one coordinator's wires, so a null
    invented by one worker and later seeded to another is one object.  A
    failed worker fails the run, so the two ends never need resynchronising.
    """

    def __init__(self, interned: Optional[Dict[Any, Any]] = None) -> None:
        super().__init__()
        self.symbols: List[Any] = []
        self._fresh: List[Tuple[Any, Tuple[Any, ...]]] = []
        self._interned: Dict[Any, Any] = {} if interned is None else interned

    def _define(self, symbol: Any) -> int:
        self[symbol] = number = len(self.symbols)
        self.symbols.append(symbol)
        return number

    def __missing__(self, symbol: Any) -> int:
        if isinstance(symbol, Predicate):
            self._fresh.append((Predicate, (symbol.name, symbol.arity)))
        else:
            self._fresh.append((type(symbol), (symbol.name,)))
        return self._define(symbol)

    def take_fresh(self) -> List[Tuple[Any, Tuple[Any, ...]]]:
        """The entries of the symbols numbered since the last message."""
        fresh, self._fresh = self._fresh, []
        return fresh

    def absorb(self, fresh: Iterable[Tuple[Any, Tuple[Any, ...]]]) -> None:
        """Number the peer's fresh symbols exactly as the peer did."""
        interned = self._interned
        for entry in fresh:
            symbol = interned.get(entry)
            if symbol is None:
                symbol = interned[entry] = entry[0](*entry[1])
            self._define(symbol)

    def encode(self, rows: Iterable[Tuple[int, Sequence[Term]]]) -> Runs:
        """``(lead, terms)`` rows → runs; *lead* is an int the codec passes through."""
        runs: Runs = []
        run: List[Any] = []
        number = self.__getitem__
        for lead, terms in rows:
            if not run or run[0] != lead:
                run = [lead, 0, []]
                runs.append(run)
            run[1] += 1
            run[2].extend(map(number, terms))
        return runs

    def decode(self, runs: Runs) -> Iterator[Tuple[int, Row]]:
        """The inverse of :meth:`encode`, over the absorbed table."""
        for lead, count, flat in runs:
            terms = tuple(map(self.symbols.__getitem__, flat))
            width = len(terms) // count
            for start in range(count):
                yield lead, terms[start * width:(start + 1) * width]

    def encode_rows(self, rows: Mapping[Predicate, Iterable[Row]]) -> Runs:
        """Rows led by their predicate's id."""
        return self.encode(
            [(self[predicate], row) for predicate, run in rows.items() for row in run]
        )

    def encode_atoms(self, atoms: Iterable[Atom]) -> Runs:
        """:meth:`encode_rows` for atoms."""
        return self.encode([(self[atom.predicate], atom.terms) for atom in atoms])

    def decode_rows(self, runs: Runs) -> Dict[Predicate, List[Row]]:
        """The inverse of :meth:`encode_rows` (and :meth:`encode_atoms`)."""
        rows: Dict[Predicate, List[Row]] = {}
        for lead, terms in self.decode(runs):
            rows.setdefault(self.symbols[lead], []).append(terms)
        return rows


# --------------------------------------------------------------------------- #
# Worker pools: one in-process, one of processes.  Both serve the
# coordinator merge's ``initial``/``delta`` round protocol.


class _LocalPool:
    """In-process workers, run one after another on the coordinator's store.

    Serves ``workers == 1``, ``executor="serial"`` and ``"auto"`` over an
    :class:`~repro.core.instances.Instance` — the exact partitioning and
    merge protocol of the process pool without processes, which is what the
    determinism tests lean on.
    """

    def __init__(
        self,
        workers: int,
        tgds: Sequence[TGD],
        variant: str,
        store: AtomStore,
        traced: bool,
    ) -> None:
        self.workers = workers
        self._match_workers = [
            _MatchWorker(worker_id, workers, tgds, variant, store, traced)
            for worker_id in range(workers)
        ]

    def _wave(self, calls: Sequence[Callable[[], _T]]) -> List[_T]:
        """Run one call per worker, in worker order.  A worker's exception
        fails the run the way a process worker's does."""
        wave: List[_T] = []
        for worker_id, call in enumerate(calls):
            try:
                wave.append(call())
            except Exception as error:
                raise ParallelWorkerError(
                    f"parallel chase worker {worker_id} failed: {type(error).__name__}: {error}"
                ) from error
        return wave

    def initial(self) -> List[RoundReport]:
        return self._wave([worker.initial_round for worker in self._match_workers])

    def delta(self, replicated: Delta, seeds_by_worker: Sequence[Seeds]) -> List[RoundReport]:
        return self._wave(
            [
                partial(worker.delta_round, replicated, seeds_by_worker[worker.worker_id])
                for worker in self._match_workers
            ]
        )

    def close(self) -> None:
        """Nothing to release: the workers are plain objects."""


#: A process replica's round report on the wire: its fresh symbols, the fired
#: triggers as value rows led by their rule (:meth:`FiringPlan.values`), the
#: considered-but-not-fired keys (rule-led witness rows), and the traced-run
#: metrics payload.
WireReport = Tuple[List[Any], Runs, Runs, Optional[WorkerMetrics]]


def _serve_match(worker: _MatchWorker, wire: _Wire, message: Tuple[Any, ...]) -> WireReport:
    """One coordinator-merge round on a process replica, int frames in and out.

    A delta message carries what :func:`replica_seed_split` says this replica
    reads: the round's *replicated* rows, inserted here, and the seeds this
    worker owns, which it only matches from.
    """
    started = worker.clock.now()
    if message[0] == "initial":
        considered, fired = worker._initial_round()
    else:
        _, fresh, replicated_runs, seed_runs = message
        wire.absorb(fresh)
        replicated = wire.decode_rows(replicated_runs)
        seeds = list(wire.decode(seed_runs))
        insert_rows(worker.store, replicated)
        considered, fired = worker._delta_round(replicated, seeds)
    skipped: List[FiringKey] = []
    if len(fired) < len(considered):  # restricted only: the head check held keys back
        fired_keys = {key for key, _ in fired}
        skipped = [
            cast(FiringKey, key) for key in considered if key not in fired_keys
        ]
    fired_runs = wire.encode([(_key_rule(key), values) for key, values in fired])
    skipped_runs = wire.encode(skipped)
    metrics = worker.metrics(started, len(considered), len(fired))
    return wire.take_fresh(), fired_runs, skipped_runs, metrics


def _worker_main(
    conn: Connection,
    worker_id: int,
    n_workers: int,
    tgds: Sequence[TGD],
    variant: str,
    collect_metrics: bool,
) -> None:
    """Entry point of a process worker: build the replica, serve rounds.

    The replica is an in-memory :class:`Instance` seeded by ``("seed",
    fresh, runs)`` messages, streamed by the coordinator before the first
    round.  Every other message is one round of the pool's protocol,
    answered with an ``("ok", report)`` or ``("error", traceback)`` on the
    control pipe.
    """
    try:
        try:
            store = Instance()
            wire = _Wire()
            worker = _MatchWorker(worker_id, n_workers, tgds, variant, store, collect_metrics)
        except Exception:
            conn.send(("error", traceback.format_exc()))
            return
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "stop":
                break
            try:
                if kind == "seed":
                    # Chunks arrive sorted (grouped by predicate), so the
                    # replica loads each predicate as one batch.
                    wire.absorb(message[1])
                    insert_rows(store, wire.decode_rows(message[2]))
                    continue
                conn.send(("ok", _serve_match(worker, wire, message)))
            except Exception:
                conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


class _ProcessPool:
    """Process workers, each with an in-memory :class:`Instance` replica.

    Each worker holds a private store that grows by what the worker reads
    (:func:`replica_seed_split`): every round's atoms of the *full*
    predicates, from the coordinator's delta message, and nothing else, so
    the coordinator ships *work*, never the instance.  Seed chunks, deltas and
    match reports cross the control pipes as int frames over a
    per-connection :class:`_Wire`; a report is value rows, which
    :meth:`_decode_report` turns back into firing keys through each rule's
    one :class:`FiringPlan`.  *worker_seeds* (a callable ``worker_id ->
    sorted atoms``) streams each worker only the relations it needs, in
    bounded chunks over its pipe — whatever the coordinator's store holds,
    nulls of an interrupted run included.  Workers are dedicated processes
    on private control pipes — unlike a task pool, round ``i``'s message to
    worker ``w`` is guaranteed to be processed by the same replica that saw
    rounds ``< i``.

    A worker that reports an error, or dies, fails the round with a
    :class:`~repro.exceptions.ParallelWorkerError` (a ``RuntimeError``)
    naming it — whichever worker it is and however many healthy workers are
    still busy: :meth:`_collect` waits on all control pipes at once.
    """

    def __init__(
        self,
        workers: int,
        tgds: Sequence[TGD],
        variant: str,
        worker_seeds: Callable[[int], List[Atom]],
        collect_metrics: bool,
    ) -> None:
        self.workers = workers
        null_scope = resolve_engine_class(variant).null_scope
        self._firing_plans = [
            FiringPlan(tgd.rule, index, null_scope) for index, tgd in enumerate(tgds)
        ]
        interned: Dict[Any, Any] = {}
        self._wires = [_Wire(interned) for _ in range(workers)]
        context = multiprocessing.get_context()
        self._connections: List[Connection] = []
        self._processes: List[multiprocessing.process.BaseProcess] = []
        try:
            for worker_id in range(workers):
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_worker_main,
                    args=(child_conn, worker_id, workers, tuple(tgds), variant, collect_metrics),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._connections.append(parent_conn)
                self._processes.append(process)
            for worker_id, wire in enumerate(self._wires):
                atoms = worker_seeds(worker_id)
                for start in range(0, len(atoms), SEED_CHUNK_ATOMS):
                    runs = wire.encode_atoms(atoms[start:start + SEED_CHUNK_ATOMS])
                    self._send(worker_id, ("seed", wire.take_fresh(), runs))
        except Exception:
            self.close()
            raise

    def _worker_failed(self, worker_id: int, report: Optional[str] = None) -> ParallelWorkerError:
        """The documented failure for a worker that reported an error or died."""
        if report is None:
            connection = self._connections[worker_id]
            try:
                # A worker that failed while starting up leaves its
                # traceback in the pipe before it exits.
                if connection.poll():
                    report = connection.recv()[1]
            except (EOFError, OSError):
                pass
        if report is not None:
            cause = report.strip().splitlines()[-1]  # a traceback ends in the exception
            return ParallelWorkerError(
                f"parallel chase worker {worker_id} failed: {cause}\n{report}"
            )
        process = self._processes[worker_id]
        process.join(timeout=2)
        return ParallelWorkerError(
            f"parallel chase worker {worker_id} failed: its process exited "
            f"with code {process.exitcode}"
        )

    def _send(self, worker_id: int, message: Tuple[object, ...]) -> None:
        try:
            self._connections[worker_id].send(message)
        except (BrokenPipeError, OSError):
            raise self._worker_failed(worker_id) from None

    def _collect(self) -> List[RoundReport]:
        """One report per worker, in worker order; raise on the first failure.

        Waits on *all* control pipes at once and decodes each report as it
        arrives, so the coordinator decodes one worker's value rows while
        slower workers are still matching.
        """
        reports: List[Any] = [None] * self.workers
        pending = {connection: worker_id for worker_id, connection in enumerate(self._connections)}
        while pending:
            for ready in wait(list(pending)):
                connection = cast(Connection, ready)
                worker_id = pending.pop(connection)
                try:
                    status, payload = connection.recv()
                except (EOFError, OSError):
                    raise self._worker_failed(worker_id) from None
                if status != "ok":
                    raise self._worker_failed(worker_id, payload)
                reports[worker_id] = self._decode_report(worker_id, payload)
        return reports

    def _decode_report(self, worker_id: int, report: WireReport) -> RoundReport:
        """Value rows back to ``(firing key, value row)``: the key is a
        function of the row alone, read through the rule's firing plan."""
        fresh, fired_runs, skipped_runs, metrics = report
        wire = self._wires[worker_id]
        wire.absorb(fresh)
        plans = self._firing_plans
        fired: List[Tuple[object, Any]] = [
            (plans[rule].row_key(values), values) for rule, values in wire.decode(fired_runs)
        ]
        considered: List[object] = [key for key, _ in fired]
        considered.extend(wire.decode(skipped_runs))
        return considered, fired, metrics

    def initial(self) -> List[RoundReport]:
        for worker_id in range(self.workers):
            self._send(worker_id, ("initial",))
        return self._collect()

    def delta(self, replicated: Delta, seeds_by_worker: Sequence[Seeds]) -> List[RoundReport]:
        for worker_id, wire in enumerate(self._wires):
            replicated_runs = wire.encode_rows(replicated)
            seed_runs = wire.encode(seeds_by_worker[worker_id])
            self._send(worker_id, ("delta", wire.take_fresh(), replicated_runs, seed_runs))
        return self._collect()

    def close(self) -> None:
        for connection in self._connections:
            try:
                connection.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            connection.close()
        for process in self._processes:
            # A worker still busy with a failed round never reads the stop
            # message; don't wait long before terminating.
            process.join(timeout=2)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)


# --------------------------------------------------------------------------- #
# Round steps (plugged into repro.chase.rounds.run_rounds)


def _emit_worker_round(
    tracer: AnyTracer, round_number: int, worker: int, considered: int, fired: int,
    seconds: float,
) -> None:
    tracer.emit(
        "worker_round",
        round=round_number,
        worker=worker,
        considered=considered,
        fired=fired,
        dur=round(seconds, 9),
    )


class _CoordinatorStep:
    """Coordinator-merge round: partition the delta, merge the pool's reports.

    Owns the global firing-key set.  The merge is order-insensitive: what a
    key fires (and whether it does) is a function of the key alone, so
    "first worker wins" and "union of everything" coincide.  Fired value
    rows become head rows through the rule's :class:`FiringPlan` and reach
    the driver as rows — no :class:`Atom` on the coordinator.
    """

    def __init__(
        self,
        pool: Union[_LocalPool, _ProcessPool],
        table: _PlanTable,
        variant: str,
        store: AtomStore,
        tracer: AnyTracer,
    ) -> None:
        self._pool = pool
        self._store = store
        self._tracer = tracer
        self._fired_keys: Set[object] = set()
        null_scope = resolve_engine_class(variant).null_scope
        self._plans = [
            FiringPlan(tgd.rule, index, null_scope) for index, tgd in enumerate(table.tgds)
        ]
        # predicate -> (every replica holds it in full, the plans it seeds);
        # a predicate no rule reads has no route and is never shipped.
        full, partitioned = replica_seed_split(table.tgds, variant)
        self._routes = {
            predicate: (predicate in full, table.by_predicate.get(predicate, ()))
            for predicate in full | partitioned
        }

    def _partition_work(
        self, delta: Delta
    ) -> Tuple[Dict[Predicate, Sequence[Row]], List[List[Tuple[int, Row]]]]:
        """Split the delta by what each worker reads of it: the rows of the
        *full* predicates (every worker, in the driver's sorted order), and
        per worker the ``(plan, seed row)`` pairs it owns."""
        workers = self._pool.workers
        replicated: Dict[Predicate, Sequence[Row]] = {}
        seeds: List[List[Tuple[int, Row]]] = [[] for _ in range(workers)]
        for predicate, rows in delta.items():
            is_full, entries = self._routes.get(predicate, (False, ()))
            if is_full:
                replicated[predicate] = rows
            for row in rows:
                for entry in entries:
                    owner = row_partition_of(row, entry.plan.partition_positions, workers)
                    seeds[owner].append((entry.plan_id, row))
        return replicated, seeds

    def __call__(self, round_index: int, delta: Delta) -> RoundOutcome:
        tracer = self._tracer
        traced = tracer.enabled
        if round_index == 0:
            reports = self._pool.initial()
        else:
            # *delta* is already in the driver's sorted insertion order, so
            # replicas apply their share in the order the coordinator's
            # store did.
            reports = self._pool.delta(*self._partition_work(delta))

        round_keys: List[object] = []
        fired_by_key: Dict[object, Sequence[Term]] = {}
        for considered, fired, metrics in reports:
            round_keys.extend(considered)
            for key, values in fired:
                fired_by_key.setdefault(key, values)
            if metrics is not None:
                worker_id, seconds, n_considered, n_fired = metrics
                _emit_worker_round(
                    tracer, round_index + 1, worker_id, n_considered, n_fired, seconds
                )

        has_row = self._store.has_row
        plans = self._plans
        fired_keys = self._fired_keys
        new_rows: Dict[Predicate, Set[Row]] = {}
        n_fired = 0
        # Traced runs only: rule -> [enumerated, fired, atoms, nulls-set],
        # attributed through the leading tgd_index of every firing key.
        rule_stats: Dict[int, List[Any]] = {}
        stats: List[Any] = []
        for key, values in fired_by_key.items():
            if key in fired_keys:
                continue
            n_fired += 1
            rule = _key_rule(key)
            if traced:
                stats = rule_stats.setdefault(rule, [0, 0, 0, set()])
                stats[1] += 1
            for predicate, row in plans[rule].head_rows(values):
                if has_row(predicate, row):
                    continue
                bucket = new_rows.setdefault(predicate, set())
                size = len(bucket)
                bucket.add(row)
                if traced and len(bucket) > size:
                    stats[2] += 1
                    for term in row:
                        if isinstance(term, Null):
                            stats[3].add(term)
        fired_keys.update(round_keys)
        if traced:
            for key in round_keys:
                rule_stats.setdefault(_key_rule(key), [0, 0, 0, set()])[0] += 1
        # Per-rule ``dur`` is 0.0: matching time lives in the workers.
        rule_rows = [
            RuleRow(rule, enumerated, rule_fired, atoms_created, len(nulls), 0.0)
            for rule, (enumerated, rule_fired, atoms_created, nulls) in rule_stats.items()
        ]
        return RoundOutcome(len(round_keys), n_fired, new_rows, rule_rows)


# --------------------------------------------------------------------------- #
# The coordinator


class ParallelChaseExecutor:
    """Coordinator of the hash-partitioned parallel chase.

    Owns the authoritative store and picks the worker pool that the
    coordinator-merge round step drives; the budget accounting, the sorted
    insert and the result are the shared round driver's
    (:func:`repro.chase.rounds.run_rounds`).  The merge is order-insensitive
    (see the module docstring), which is what makes the result identical
    across worker counts, executors, and backends.
    """

    def __init__(
        self,
        variant: str = "semi-oblivious",
        workers: int = 2,
        limits: Optional[ChaseLimits] = None,
        on_limit: str = "return",
        executor: str = "auto",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if on_limit not in ("return", "raise"):
            raise ValueError("on_limit must be 'return' or 'raise'")
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        resolve_engine_class(variant)  # validate eagerly
        self.variant = variant
        self.workers = workers
        self.limits = limits if limits is not None else ChaseLimits()
        self.on_limit = on_limit
        self.executor = executor

    # ------------------------------------------------------------------ #

    def _resolve_executor(self, store: AtomStore) -> str:
        """``auto`` → the in-process pool for an in-memory store, processes
        for a :class:`~repro.storage.sqlbackend.SqliteAtomStore`.

        Measured on the ``chase_skew_par2`` inputs (2 workers, 2-CPU host,
        CPython 3.11): serial engine 0.207 s, in-process pool 0.223 s,
        process pool 0.339 s — shipping an in-memory store's work to
        processes costs more than it buys.  A SQLite store keeps the
        process pool: its connection is bound to the coordinator's thread,
        and each worker matches over an in-memory replica on its own core.
        """
        from ..storage.sqlbackend import SqliteAtomStore

        if self.executor != "auto":
            return self.executor
        if self.workers > 1 and isinstance(store, SqliteAtomStore):
            return "process"
        return "serial"

    def _make_pool(
        self, tgds: Sequence[TGD], store: AtomStore, traced: bool
    ) -> Union[_LocalPool, _ProcessPool]:
        """The worker pool for *store*; on *traced* runs the workers time
        their rounds for the ``worker_round`` events."""
        if self._resolve_executor(store) != "process" or self.workers == 1:
            return _LocalPool(self.workers, tgds, self.variant, store, traced=traced)
        # The fully-replicated portion is identical for every worker:
        # collect it once, not once per worker.
        full, _ = replica_seed_split(tgds, self.variant)
        full_atoms = collect_full_seed_atoms(store, full)

        def worker_seeds(worker_id: int) -> List[Atom]:
            # Partition-streamed seeding (see worker_seed_atoms): sorted,
            # so per-worker replica construction order stays
            # deterministic.
            return worker_seed_atoms(
                store, tgds, self.variant, self.workers, worker_id, full_atoms=full_atoms
            )

        return _ProcessPool(
            self.workers, tgds, self.variant, worker_seeds, collect_metrics=traced
        )

    def run(
        self,
        database: Database,
        tgds: TGDSet,
        store: Optional[AtomStore] = None,
        tracer: Optional[AnyTracer] = None,
    ) -> ChaseResult:
        """Run the parallel chase; same contract as :meth:`ChaseEngine.run`.

        *tracer* makes the run emit the same ``round``/``rule_round``
        stream as the serial engines (sums reproduce the result totals
        exactly; per-rule ``dur`` is 0.0 — matching time lives in the
        workers) plus one ``worker_round`` event per (worker, round).
        ``chase_start``/``chase_end`` are the caller's job
        (:func:`repro.chase.engine.chase` emits them).  Tracing never
        changes the result.
        """
        active_tracer = as_tracer(tracer)
        tgd_list = tuple(tgds)
        if store is None:
            store = Instance()
        seed_store(store, database)
        table = _PlanTable(tgd_list)
        pool = self._make_pool(tgd_list, store, active_tracer.enabled)
        try:
            step = _CoordinatorStep(pool, table, self.variant, store, active_tracer)
            return run_rounds(
                step, store, self.limits, self.on_limit, self.variant, active_tracer
            )
        finally:
            pool.close()


def parallel_chase(
    database: Database,
    tgds: TGDSet,
    variant: str = "semi-oblivious",
    workers: int = 2,
    limits: Optional[ChaseLimits] = None,
    on_limit: str = "return",
    backend: str = "instance",
    store: Optional[AtomStore] = None,
    executor: str = "auto",
    materialize: bool = True,
    tracer: Optional[AnyTracer] = None,
    exchange: str = "coordinator",
) -> ChaseResult:
    """Run the hash-partitioned parallel chase of *database* with *tgds*.

    Accepts the same parameters as :func:`repro.chase.engine.chase` except
    *strategy* — workers always match with the indexed trigger source;
    ``sql-pushdown`` is serial — plus

    workers:
        Number of partition workers (``1`` degenerates to an in-process
        run through the same partition/merge machinery).
    executor:
        ``"auto"`` (default) runs the workers in-process for the in-memory
        backend — on the ``chase_skew_par2`` inputs that beats shipping
        them to processes (0.223 s vs 0.339 s, 2 workers) — and in
        processes for sqlite; ``"serial"`` / ``"process"`` force a pool
        kind.  Process workers hold in-memory replicas built from a
        streamed seed, whatever the backend: the out-of-core path is the
        serial chase into a ``sqlite:<file>`` store.
    exchange:
        A name from :data:`~repro.chase.exchange.EXCHANGES`; every name
        runs the one topology, the coordinator merge (``"shuffle"`` is the
        retired name the benchmark still times).  Any other name is a
        ``ValueError``.

    ``materialize=False`` skips the eager ``result.instance`` build, like
    :func:`~repro.chase.engine.chase`.  The result is guaranteed identical
    — atoms, null names, round and trigger counts — to the serial
    engine's, for every worker count and executor kind.
    """
    if exchange not in EXCHANGES:
        raise ValueError(f"exchange must be one of {EXCHANGES}, got {exchange!r}")
    if store is None:
        store = make_backend_store(backend)
    coordinator = ParallelChaseExecutor(
        variant=variant,
        workers=workers,
        limits=limits,
        on_limit=on_limit,
        executor=executor,
    )
    try:
        result = coordinator.run(database, tgds, store=store, tracer=tracer)
    finally:
        # Commit even when the run raises, so an interrupted persistent
        # store keeps its prefix and stays resumable.
        flush = getattr(store, "flush", None)
        if flush is not None:
            flush()
    if materialize:
        result.materialize()
    return result
