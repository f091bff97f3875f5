"""Hash-partitioned parallel chase execution.

The serial engines of :mod:`repro.chase.engine` spend each breadth-first
round matching TGD bodies against the round's delta atoms — an
embarrassingly parallel join.  This module fans that matching out across a
worker pool the way the shared-nothing parallel-join literature (K-Join,
near-optimal parallel binary joins) distributes probe work:

* **partitioning** — every unit of match work is a ``(JoinPlan, seed atom)``
  pair; it is assigned to the worker owning the stable hash of the seed
  atom's terms at the plan's join-key positions
  (:attr:`~repro.chase.matching.JoinPlan.partition_positions`), so seeds
  sharing a join key land on the same worker.  Round 0 does not ship seeds
  at all: each worker scans its own partition of every seed relation
  through ``AtomStore.atoms_partition``;
* **workers** — threads sharing the coordinator's store for the in-memory
  :class:`~repro.core.instances.Instance` backend, processes holding
  per-worker store replicas for the
  :class:`~repro.storage.database.RelationalDatabase` and
  :class:`~repro.storage.sqlbackend.SqliteAtomStore` backends (a replica
  receives of each round's merged delta what :func:`replica_seed_split`
  says it reads; a SQLite connection never crosses a process boundary).
  Process replicas are seeded *out-of-core*: a persistent SQLite store is
  never pickled at all — each worker attaches the coordinator's file
  read-only and overlays its private deltas in an in-memory
  :class:`~repro.storage.sqlbackend.SqliteOverlayStore`; in-memory stores
  stream their seed through the worker pipe in chunks, and each worker
  receives only the relations the TGD set makes it responsible for
  (:func:`worker_seed_atoms`): relations joined by multi-atom bodies in
  full, single-atom-body relations only in the worker's own hash
  partition, everything else not at all.  On GIL builds of CPython the
  thread pool cannot speed up the pure-Python matching itself — it exists
  for protocol coverage and for free-threaded/partially-native futures;
  force ``executor="process"`` (works for any backend) when real
  core-parallelism is wanted today;
* **deterministic merge** — workers report the *firing keys* they
  considered and, per key, the trigger's result atoms (process workers
  as int value rows — witness images, then invented nulls — that the
  coordinator expands through the rule's one ``FiringPlan``).  Because firing
  keys, head atoms, and invented nulls are all functions of the key alone
  (content-addressed :class:`~repro.core.terms.NullFactory` naming), the
  merged round is a set union that does not depend on worker count,
  scheduling, or enumeration order — the ``ChaseResult`` (atoms, null
  names, rounds, trigger counts) is *identical* to the serial engine's.

The coordinator owns the authoritative store; workers never mutate shared
state beyond their own replica.  The round loop itself — budgets, sorted
insertion, flushes, ``round``/``rule_round`` events, the result — is the
shared driver's (:func:`repro.chase.rounds.run_rounds`): each exchange
topology is only a *round step* plugged into it (:class:`_CoordinatorStep`,
:class:`_ShuffleStep`) over one of two pools (:class:`_LocalPool` in-process,
:class:`_ProcessPool` with replicas), and both pools serve both topologies.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import traceback
from concurrent import futures
from functools import partial
from multiprocessing.connection import Connection, wait
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
    cast,
)

from ..core.atoms import Atom, atom_sort_key
from ..core.indexing import atom_partition_of
from ..core.instances import Database, Instance
from ..core.predicates import Predicate
from ..core.terms import Null, NullFactory, Term
from ..core.tgds import TGD, TGDSet
from ..exceptions import ParallelWorkerError
from ..obs.clock import MonotonicClock
from ..obs.metrics import MetricsRegistry, StatementMetrics, sql_family_stats
from ..obs.tracer import AnyTracer, as_tracer
from ..storage.atom_store import AtomStore
from .engine import ChaseEngine, make_backend_store, resolve_engine_class
from .exchange import (
    EXCHANGES,
    Frame,
    FrameAssembler,
    HeavyRoute,
    ShuffleReport,
    ShuffleWorker,
    SkewDetector,
    iter_frames,
)
from .matching import JoinPlan
from .result import ChaseLimits, ChaseResult
from .rounds import RoundOutcome, RoundStep, RuleRow, insert_atoms, insert_sorted, run_rounds
from .triggers import FiringKey, FiringPlan

_T = TypeVar("_T")

#: Worker backends accepted by :func:`parallel_chase`.
EXECUTORS = ("auto", "serial", "thread", "process")

#: The match half of a worker's report: the firing keys it considered (new
#: to it) and, for the keys that passed the variant's firing policy, what the
#: trigger fired — its result atoms, or on a process replica of the
#: coordinator merge its value row (see :attr:`_MatchWorker.fire`).
MatchBatch = Tuple[List[object], List[Tuple[object, Any]]]

#: A :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dump.
RegistrySnapshot = Dict[str, List[Dict[str, object]]]

#: Per-round observability payload attached when the coordinator runs
#: traced: ``(worker_id, seconds, considered, fired, sql_snapshot)``.  The
#: snapshot is the worker-local :class:`~repro.obs.metrics.MetricsRegistry`
#: dump — cumulative, so the coordinator keeps only the latest one per
#: worker (process replicas only: shared-store pools time SQL on the
#: coordinator's own registry instead).
WorkerMetrics = Tuple[int, float, int, int, Optional[RegistrySnapshot]]

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

    __slots__ = ("plan_id", "tgd_index", "tgd", "plan", "seed_predicate")

    def __init__(self, plan_id: int, tgd_index: int, tgd: TGD, plan: JoinPlan) -> None:
        self.plan_id = plan_id
        self.tgd_index = tgd_index
        self.tgd = tgd
        self.plan = plan
        self.seed_predicate = plan.body[plan.seed_slot].predicate


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
            for slot, atom in enumerate(tgd.body):
                entry = _PlanEntry(
                    len(self.entries), tgd_index, tgd, JoinPlan(tgd.body, slot)
                )
                self.entries.append(entry)
                self.by_predicate.setdefault(atom.predicate, []).append(entry)
                if slot == 0:
                    self.initial_entries.append(entry)


class _MatchWorker:
    """Trigger matching over one partition of the round's work.

    Runs inline (serial mode), on a pool thread against the shared store
    (thread mode), or inside a worker process against a private replica
    (process mode).  ``reported_keys`` caches the firing keys this worker
    has already sent upstream so it never reports the same key twice; the
    coordinator still performs the authoritative cross-worker dedup.
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
            FiringPlan(tgd, index, self.policy.null_scope)
            for index, tgd in enumerate(self.table.tgds)
        ]
        self.null_factory = NullFactory()
        #: What a fired trigger reports: its result atoms.  A process replica
        #: of the coordinator merge reports ``FiringPlan.values`` instead —
        #: the row the coordinator rebuilds key and atoms from.
        self.fire: Callable[[FiringPlan, Any, NullFactory], Any] = FiringPlan.result
        self.reported_keys: Set[object] = set()
        self.collect_metrics = collect_metrics
        self.clock = MonotonicClock()
        #: Worker-local SQL timings; attached by ``_worker_main`` when the
        #: worker owns a private sqlite replica.  Shared-store pools leave
        #: this ``None`` — the coordinator times those statements itself.
        self.statement_metrics: Optional[StatementMetrics] = None

    def initial_round(self) -> RoundReport:
        """Run :meth:`_initial_round`, attaching metrics on traced runs."""
        started = self.clock.now()
        considered, fired = self._initial_round()
        return considered, fired, self.metrics(started, len(considered), len(fired))

    def delta_round(
        self, replicated: Sequence[Atom], seeds: Sequence[Tuple[int, Atom]]
    ) -> RoundReport:
        """Run :meth:`_delta_round`, attaching metrics on traced runs."""
        started = self.clock.now()
        considered, fired = self._delta_round(replicated, seeds)
        return considered, fired, self.metrics(started, len(considered), len(fired))

    def metrics(self, started: float, considered: int, fired: int) -> Optional[WorkerMetrics]:
        """The traced-run payload of a round this worker began at *started*."""
        if not self.collect_metrics:
            return None
        snapshot = (
            self.statement_metrics.registry.snapshot()
            if self.statement_metrics is not None
            else None
        )
        return self.worker_id, self.clock.now() - started, considered, fired, snapshot

    def _initial_round(self) -> MatchBatch:
        """Match every body homomorphism whose slot-0 atom this worker owns.

        Seeding only slot-0 plans (with no delta constraint) enumerates each
        homomorphism exactly once, and the partitioned relation scan splits
        that enumeration across workers without any coordinator shipping.
        """
        considered: List[object] = []
        fired: List[Tuple[object, Any]] = []
        for entry in self.table.initial_entries:
            plan = entry.plan
            seeds = self.store.atoms_partition(
                plan.body[0].predicate,
                plan.partition_positions,
                self.n_workers,
                self.worker_id,
            )
            for seed in seeds:
                for mapping in plan.matches(self.store, seed):
                    self._consider(entry, mapping, considered, fired)
        return considered, fired

    def _delta_round(
        self, replicated: Sequence[Atom], seeds: Sequence[Tuple[int, Atom]]
    ) -> MatchBatch:
        """Execute this worker's share of one delta round, in either topology.

        *seeds* are the ``(plan_id, seed atom)`` pairs this worker owns: the
        seed rides inside the pair (a partitioned-relation atom need not
        exist in this worker's replica at all).  *replicated* — the round's
        atoms of fully-replicated predicates, which the store already holds
        — stands in for the full delta as the semi-naive exclusion set: only
        multi-atom-body predicates can occur at slots before a seed, so the
        constraint sees exactly the candidates it would have.
        """
        exclusion = set(replicated)
        considered: List[object] = []
        fired: List[Tuple[object, Any]] = []
        for plan_id, seed in seeds:
            entry = self.table.entries[plan_id]
            for mapping in entry.plan.matches(self.store, seed, delta=exclusion):
                self._consider(entry, mapping, considered, fired)
        return considered, fired

    def _consider(
        self,
        entry: _PlanEntry,
        mapping: Dict[Term, Term],
        considered: List[object],
        fired: List[Tuple[object, Any]],
    ) -> None:
        plan = self.firing_plans[entry.tgd_index]
        key = plan.key(mapping)
        if key in self.reported_keys:
            return
        self.reported_keys.add(key)
        considered.append(key)
        if self.policy._should_fire(plan, mapping, self.store):
            fired.append((key, self.fire(plan, key, self.null_factory)))


class PushdownMatchWorker(_MatchWorker):
    """A :class:`_MatchWorker` whose body matching runs as compiled SQL.

    The ``sql-pushdown`` strategy's worker: homomorphism enumeration moves
    into SQLite (:class:`~repro.storage.sqlbackend.pushdown.CompiledPlanQuery`
    — partition-filtered with ``repro_partition`` and watermarked by the
    worker's own ``seq`` snapshot for semi-naive delta rounds), while the
    consider/report path — firing keys, the restricted check, null
    invention — is inherited unchanged, so reports stay byte-identical to
    the indexed worker's and the coordinator's merge needs no changes.

    Routed *seeds* only say which relations grew: the seed-slot watermark
    plus the hash-partition predicate select exactly the (entry, new seed
    atom) pairs this worker owns — from the store, so a replica must hold
    this worker's share of every seed relation (see :func:`_serve_match`).
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
        super().__init__(worker_id, n_workers, tgds, variant, store, collect_metrics)
        from ..storage.sqlbackend import SqliteAtomStore
        from ..storage.sqlbackend.pushdown import CompiledPlanQuery

        if not isinstance(store, SqliteAtomStore):
            raise ValueError(
                "the sql-pushdown strategy matches inside SQLite and "
                "requires SqliteAtomStore worker stores"
            )
        self._queries = [
            CompiledPlanQuery(
                entry.tgd,
                entry.plan.seed_slot,
                entry.plan.partition_positions,
                store,
                n_workers > 1,
            )
            for entry in self.table.entries
        ]
        self._last_seq = 0

    def _initial_round(self) -> MatchBatch:
        considered: List[object] = []
        fired: List[Tuple[object, Any]] = []
        for entry in self.table.initial_entries:
            query = self._queries[entry.plan_id]
            for mapping in query.initial_matches(self.store, self.n_workers, self.worker_id):
                self._consider(entry, mapping, considered, fired)
        self._last_seq = self.store.current_seq()
        return considered, fired

    def _delta_round(
        self, replicated: Sequence[Atom], seeds: Sequence[Tuple[int, Atom]]
    ) -> MatchBatch:
        # The watermark is the snapshot taken at the end of the previous
        # round — before this round's delta reached the store, whoever
        # inserted it (the coordinator into a shared store, the serving
        # loop into a replica).
        delta_start = self._last_seq
        delta_predicates = {atom.predicate for atom in replicated}
        delta_predicates.update(atom.predicate for _, atom in seeds)
        considered: List[object] = []
        fired: List[Tuple[object, Any]] = []
        for entry in self.table.entries:
            if entry.seed_predicate not in delta_predicates:
                continue
            query = self._queries[entry.plan_id]
            for mapping in query.delta_matches(
                self.store, delta_start, self.n_workers, self.worker_id
            ):
                self._consider(entry, mapping, considered, fired)
        self._last_seq = self.store.current_seq()
        return considered, fired


def _make_match_worker(
    strategy: str,
    worker_id: int,
    n_workers: int,
    tgds: Sequence[TGD],
    variant: str,
    store: AtomStore,
    collect_metrics: bool = False,
) -> _MatchWorker:
    """Build the per-partition worker for *strategy* (indexed or pushdown)."""
    if strategy == "sql-pushdown":
        return PushdownMatchWorker(
            worker_id, n_workers, tgds, variant, store, collect_metrics
        )
    return _MatchWorker(worker_id, n_workers, tgds, variant, store, collect_metrics)


# --------------------------------------------------------------------------- #
# Out-of-core replica seeding


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
        if len(tgd.body) > 1:
            full.update(atom.predicate for atom in tgd.body)
        else:
            partitioned.add(tgd.body[0].predicate)
        if variant == "restricted":
            full.update(atom.predicate for atom in tgd.head)
    return full, partitioned - full


def worker_seed_atoms(
    store: AtomStore,
    tgds: Sequence[TGD],
    variant: str,
    n_workers: int,
    worker_id: int,
    full_atoms: Optional[Sequence[Atom]] = None,
    include_unused_share: bool = False,
) -> List[Atom]:
    """The seed atoms one streaming process replica actually needs.

    This is the out-of-core replacement for pickling
    ``sorted(store.iter_atoms())`` into every worker: relations are shipped
    per :func:`replica_seed_split`, so for a linear TGD set the workers'
    seeds partition the store instead of replicating it ``n_workers``
    times.  The result is sorted (grouped by predicate), which keeps
    replica construction deterministic and lets the sqlite replica bulk
    load each predicate as one ``executemany`` batch.

    *full_atoms* optionally supplies the fully-replicated portion (the
    per-worker-invariant scan of the *full* predicates), so a coordinator
    seeding many workers collects it once instead of once per worker —
    see :func:`collect_full_seed_atoms`.

    *include_unused_share* additionally ships the worker's hash partition
    of every relation the TGDs never read.  The coordinator-merge protocol
    skips those entirely, but a shuffle worker is also the *atom-dedup
    owner* of its whole-tuple hash share of the global instance
    (:meth:`~repro.chase.exchange.ShuffleWorker.seed_owned_atoms` scans the
    replica), so its share of head-only relations must be present too.
    """
    full, partitioned = replica_seed_split(tgds, variant)
    atoms: List[Atom] = (
        list(full_atoms)
        if full_atoms is not None
        else collect_full_seed_atoms(store, full)
    )
    for predicate in partitioned:
        atoms.extend(store.atoms_partition(predicate, (), n_workers, worker_id))
    if include_unused_share:
        shipped = full | partitioned
        for predicate in store.predicates():
            if predicate not in shipped:
                atoms.extend(
                    store.atoms_partition(predicate, (), n_workers, worker_id)
                )
    return sorted(atoms, key=atom_sort_key)


def collect_full_seed_atoms(
    store: AtomStore, full_predicates: Iterable[Predicate]
) -> List[Atom]:
    """Scan the fully-replicated relations once (shared by every worker)."""
    atoms: List[Atom] = []
    for predicate in full_predicates:
        atoms.extend(store.atoms_with_predicate(predicate))
    return atoms


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

    def decode(self, runs: Runs) -> Iterator[Tuple[int, List[Term]]]:
        """The inverse of :meth:`encode`, over the absorbed table."""
        for lead, count, flat in runs:
            terms = list(map(self.symbols.__getitem__, flat))
            width = len(terms) // count
            for start in range(count):
                yield lead, terms[start * width:(start + 1) * width]

    def encode_atoms(self, atoms: Iterable[Atom]) -> Runs:
        """Atoms as rows led by their predicate's id."""
        return self.encode([(self[atom.predicate], atom.terms) for atom in atoms])

    def decode_atoms(self, runs: Runs) -> List[Atom]:
        return [Atom(self.symbols[lead], terms) for lead, terms in self.decode(runs)]


#: A null that never occurs in any store: probing for it builds a
#: predicate's position index without touching a real posting list.
_INDEX_PROBE = Null("__index_probe__")


def _warm_position_indexes(store: AtomStore, tgds: Sequence[TGD]) -> None:
    """Force-build the position indexes the TGDs' predicates will need.

    ``atoms_matching`` builds a predicate's index lazily on first use; doing
    that once up front keeps worker threads from racing to build the same
    index (harmless under the GIL, but wasteful) and keeps match latency
    uniform across partitions.
    """
    predicates = set(store.predicates())
    for tgd in tgds:
        for atom in tgd.body + tgd.head:
            if atom.predicate in predicates:
                store.atoms_matching(atom.predicate, {0: _INDEX_PROBE})


def _open_replica_store(store_spec: Tuple[str, ...], worker_id: int) -> AtomStore:
    """Build a worker's private store from its spec (never a live object)."""
    kind = store_spec[0]
    if kind == "relational":
        from ..storage.database import RelationalDatabase

        return RelationalDatabase(name=f"chase-replica-{worker_id}")
    if kind == "sqlite":
        # SQLite connections cannot cross process boundaries, so every
        # replica is a private in-memory database rebuilt from the
        # streamed seed (the coordinator alone owns its store).
        from ..storage.sqlbackend import SqliteAtomStore

        return SqliteAtomStore(name=f"chase-replica-{worker_id}")
    if kind == "sqlite-file":
        # Out-of-core seeding: attach the coordinator's persistent file
        # read-only and overlay private deltas in memory — no seed atom
        # ever crosses the pipe, and the disk-resident relations are read
        # where they already live.
        from ..storage.sqlbackend import SqliteOverlayStore

        return SqliteOverlayStore(store_spec[1], name=f"chase-replica-{worker_id}")
    return Instance()


# --------------------------------------------------------------------------- #
# Worker pools: one in-process, one of processes.  Each serves both round
# protocols — ``initial``/``delta`` for the coordinator-merge topology,
# ``round`` for the shuffle exchange (see repro.chase.exchange for its phases).


def _build_shuffle_worker(
    match_worker: _MatchWorker,
    tgds: Sequence[TGD],
    variant: str,
    strategy: str,
    shared_store: bool,
    metrics: Optional[MetricsRegistry] = None,
    report_metrics: bool = False,
) -> ShuffleWorker:
    """Assemble one worker's shuffle state machine around its match worker."""
    full, _ = replica_seed_split(tgds, variant)
    plans_by_predicate = {
        predicate: tuple(entry.plan_id for entry in entries)
        for predicate, entries in match_worker.table.by_predicate.items()
    }
    return ShuffleWorker(
        match_worker,
        plans_by_predicate,
        full,
        shared_store=shared_store,
        pushdown=strategy == "sql-pushdown",
        crash_spec=os.environ.get("REPRO_EXCHANGE_CRASH"),
        metrics=metrics,
        report_metrics=report_metrics,
    )


class _LocalPool:
    """In-process workers, run sequentially or on threads sharing the store.

    Sequential mode serves ``workers == 1`` and ``executor="serial"`` (any
    worker count) — the latter exercises the exact partitioning, merge and
    exchange protocols of the concurrent pools without threads or
    processes, which is what the determinism tests lean on.

    Thread mode is safe because rounds are phased: every :meth:`_wave` is a
    barrier, worker threads only *read* the shared store while matching,
    and the coordinator adds the merged atoms strictly between rounds.
    Position indexes are pre-warmed before the first round so no
    lazily-built index is constructed concurrently.

    The shuffle "channels" are plain lists: each phase wave returns one
    outbox per destination, and the pool hands every worker the payloads
    addressed to it before the next wave.
    """

    def __init__(
        self,
        workers: int,
        tgds: Sequence[TGD],
        variant: str,
        store: AtomStore,
        strategy: str,
        use_threads: bool,
        exchange: str,
        metrics: Optional[MetricsRegistry],
    ) -> None:
        self.workers = workers
        self._pool = (
            futures.ThreadPoolExecutor(max_workers=workers) if use_threads else None
        )
        shuffle = exchange == "shuffle"
        # Shuffle workers time their own rounds; only coordinator-merge
        # match workers attach metrics to their reports.
        collect_metrics = metrics is not None and not shuffle
        self._match_workers = [
            _make_match_worker(
                strategy, worker_id, workers, tgds, variant, store, collect_metrics
            )
            for worker_id in range(workers)
        ]
        self._shuffle_workers: List[ShuffleWorker] = []
        if shuffle:
            self._shuffle_workers = [
                _build_shuffle_worker(
                    worker, tgds, variant, strategy, shared_store=True, metrics=metrics
                )
                for worker in self._match_workers
            ]
            for shuffle_worker in self._shuffle_workers:
                shuffle_worker.seed_owned_atoms(store)
        if use_threads:
            _warm_position_indexes(store, tgds)

    def _wave(self, calls: Sequence[Callable[[], _T]]) -> List[_T]:
        """Run one call per worker, in worker order.  A worker's exception
        fails the run the way a process worker's does."""
        pending: Sequence[Callable[[], _T]] = calls
        if self._pool is not None:
            pending = [self._pool.submit(call).result for call in calls]
        wave: List[_T] = []
        for worker_id, result in enumerate(pending):
            try:
                wave.append(result())
            except Exception as error:
                raise ParallelWorkerError(
                    f"parallel chase worker {worker_id} failed: {type(error).__name__}: {error}"
                ) from error
        return wave

    def initial(self) -> List[RoundReport]:
        return self._wave([worker.initial_round for worker in self._match_workers])

    def delta(
        self,
        replicated: Sequence[Atom],
        seeds_by_worker: Sequence[Sequence[Tuple[int, Atom]]],
    ) -> List[RoundReport]:
        return self._wave(
            [
                partial(worker.delta_round, replicated, seeds_by_worker[worker.worker_id])
                for worker in self._match_workers
            ]
        )

    def round(
        self, round_index: int, heavy_routes: Tuple[HeavyRoute, ...]
    ) -> List[ShuffleReport]:
        workers = self._shuffle_workers

        def addressed_to(
            worker: ShuffleWorker, outboxes: Sequence[List[List[object]]]
        ) -> List[List[object]]:
            return [outbox[worker.worker_id] for outbox in outboxes]

        routed = self._wave(
            [partial(w.phase_route, round_index, heavy_routes) for w in workers]
        )
        keyed = self._wave(
            [partial(w.phase_match, round_index, addressed_to(w, routed)) for w in workers]
        )
        atomed = self._wave(
            [partial(w.phase_keys, round_index, addressed_to(w, keyed)) for w in workers]
        )
        return self._wave(
            [partial(w.phase_atoms, round_index, addressed_to(w, atomed)) for w in workers]
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False)


class _PipeTransport:
    """All-to-all exchange over per-pair pipes, deadlock-free by design.

    A dedicated drain thread receives from every peer connection eagerly
    and unconditionally (parking frames in an in-process queue), so this
    worker's blocking ``send`` can never participate in the classic
    all-to-all cycle — every peer's inbound buffer is always being emptied,
    whatever the main thread is doing.  The main thread is the only reader
    of the queue and the only user of the frame assembler.
    """

    def __init__(
        self, worker_id: int, peer_conns: Sequence[Tuple[int, Connection]]
    ) -> None:
        self.worker_id = worker_id
        self._peers = tuple(peer_conns)
        self._inbox: "queue.SimpleQueue[Frame]" = queue.SimpleQueue()
        self._assembler = FrameAssembler()
        self._thread = threading.Thread(target=self._drain, daemon=True)
        self._thread.start()

    def _drain(self) -> None:
        connections = [connection for _, connection in self._peers]
        while connections:
            for ready in wait(connections):
                ready_conn = cast(Connection, ready)
                try:
                    frame = ready_conn.recv()
                except (EOFError, OSError):
                    connections.remove(ready_conn)
                    continue
                self._inbox.put(frame)

    def exchange(
        self, round_index: int, phase: str, outboxes: Sequence[List[object]]
    ) -> List[Sequence[object]]:
        """Send every peer its outbox; block until all peer payloads arrive."""
        for peer_id, connection in self._peers:
            for frame in iter_frames(round_index, phase, self.worker_id, outboxes[peer_id]):
                try:
                    connection.send(frame)
                except (BrokenPipeError, OSError):
                    # A dead peer is surfaced by the coordinator (its error
                    # report or its closed control pipe); don't mask it with
                    # a send failure here.
                    pass
        inboxes: List[Sequence[object]] = [() for _ in outboxes]
        inboxes[self.worker_id] = outboxes[self.worker_id]
        pending = {peer_id for peer_id, _ in self._peers}
        for peer_id in sorted(pending):
            payload = self._assembler.pop(round_index, phase, peer_id)
            if payload is not None:
                inboxes[peer_id] = payload
                pending.discard(peer_id)
        while pending:
            completed = self._assembler.feed(self._inbox.get())
            if completed is None or completed[:2] != (round_index, phase):
                continue
            sender = completed[2]
            if sender in pending:
                payload = self._assembler.pop(round_index, phase, sender)
                inboxes[sender] = payload if payload is not None else ()
                pending.discard(sender)
        return inboxes


#: A process replica's round report on the wire: its fresh symbols, the fired
#: triggers as value rows led by their rule (:meth:`FiringPlan.values`), the
#: considered-but-not-fired keys as witness rows, and the metrics payload.
WireReport = Tuple[List[Any], Runs, Runs, Optional[WorkerMetrics]]


def _serve_match(worker: _MatchWorker, wire: _Wire, message: Tuple[Any, ...]) -> WireReport:
    """One coordinator-merge round on a process replica, int frames in and out.

    A delta message carries what :func:`replica_seed_split` says this replica
    reads: the round's *replicated* atoms, inserted here, and the seeds this
    worker owns, which an indexed worker only matches from — a pushdown
    worker's SQL reads seeds from its store, so it inserts its share too.
    """
    started = worker.clock.now()
    if message[0] == "initial":
        considered, fired = worker._initial_round()
    else:
        _, fresh, replicated_runs, seed_runs = message
        wire.absorb(fresh)
        replicated = wire.decode_atoms(replicated_runs)
        entries = worker.table.entries
        seeds = [
            (plan_id, Atom(entries[plan_id].seed_predicate, terms))
            for plan_id, terms in wire.decode(seed_runs)
        ]
        insert_atoms(worker.store, replicated)
        if isinstance(worker, PushdownMatchWorker):
            insert_atoms(worker.store, [atom for _, atom in seeds])
        considered, fired = worker._delta_round(replicated, seeds)
    skipped: List[Tuple[int, List[Term]]] = []
    if len(fired) < len(considered):  # restricted only: the head check held keys back
        fired_keys = {key for key, _ in fired}
        skipped = [
            (_key_rule(key), [image for _, image in cast(FiringKey, key)[1]])
            for key in considered
            if key not in fired_keys
        ]
    fired_runs = wire.encode([(_key_rule(key), values) for key, values in fired])
    skipped_runs = wire.encode(skipped)
    metrics = worker.metrics(started, len(considered), len(fired))
    return wire.take_fresh(), fired_runs, skipped_runs, metrics


def _serve_shuffle(
    shuffle: ShuffleWorker, transport: _PipeTransport, message: Tuple[Any, ...]
) -> ShuffleReport:
    """One shuffle round on a process replica: the four exchange phases,
    driven against the peer pipes by a ``("round", index, heavy_routes)``
    barrier message."""
    _, round_index, heavy_routes = message
    if round_index == 0:
        # All seed chunks have arrived once rounds begin: claim this
        # worker's dedup share of the seed instance.
        shuffle.seed_owned_atoms(shuffle.match_worker.store)
    outboxes = shuffle.phase_route(round_index, heavy_routes)
    inboxes = transport.exchange(round_index, "route", outboxes)
    outboxes = shuffle.phase_match(round_index, inboxes)
    inboxes = transport.exchange(round_index, "keys", outboxes)
    outboxes = shuffle.phase_keys(round_index, inboxes)
    inboxes = transport.exchange(round_index, "atoms", outboxes)
    return shuffle.phase_atoms(round_index, inboxes)


def _worker_main(
    conn: Connection,
    peer_conns: Tuple[Tuple[int, Connection], ...],
    worker_id: int,
    n_workers: int,
    tgds: Sequence[TGD],
    variant: str,
    store_spec: Tuple[str, ...],
    strategy: str,
    collect_metrics: bool,
    exchange: str,
) -> None:
    """Entry point of a process worker: build the replica, serve rounds.

    The replica is seeded by ``("seed", fresh, runs)`` messages (streamed by
    the coordinator before the first round) — or not at all for the
    ``sqlite-file`` spec, where the store reads the attached base file.
    Every other message is one round of the pool's protocol, answered with
    an ``("ok", report)`` or ``("error", traceback)`` on the control pipe.
    """
    try:
        try:
            from ..storage.sqlbackend import SqliteAtomStore

            store = _open_replica_store(store_spec, worker_id)
            wire = _Wire()
            shuffle = exchange == "shuffle"
            worker = _make_match_worker(
                strategy, worker_id, n_workers, tgds, variant, store,
                collect_metrics and not shuffle,
            )
            # The replica is private to this process, so its SQL timings
            # ride home inside the round reports.
            timed_store = (
                store if collect_metrics and isinstance(store, SqliteAtomStore) else None
            )
            serve: Callable[[Tuple[Any, ...]], object]
            if shuffle:
                registry = MetricsRegistry() if collect_metrics else None
                if timed_store is not None:
                    timed_store.set_statement_metrics(StatementMetrics(registry))
                serve = partial(
                    _serve_shuffle,
                    _build_shuffle_worker(
                        worker, tgds, variant, strategy,
                        shared_store=False, metrics=registry, report_metrics=True,
                    ),
                    _PipeTransport(worker_id, peer_conns),
                )
            else:
                if timed_store is not None:
                    worker.statement_metrics = StatementMetrics()
                    timed_store.set_statement_metrics(worker.statement_metrics)
                worker.fire = FiringPlan.values
                serve = partial(_serve_match, worker, wire)
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
                    # sqlite replica loads each predicate as one batch.
                    wire.absorb(message[1])
                    insert_atoms(store, wire.decode_atoms(message[2]))
                    continue
                conn.send(("ok", serve(message)))
            except Exception:
                conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


class _ProcessPool:
    """Process workers with per-worker store replicas.

    Each worker holds a private store that grows by what the worker reads
    (:func:`replica_seed_split`): every round's atoms of the *full*
    predicates — from the coordinator's delta message, or the peers'
    broadcasts under the shuffle exchange — and nothing else, so the
    coordinator ships *work*, never the instance.  Seed chunks, deltas and
    match reports cross the control pipes as int frames over a
    per-connection :class:`_Wire`; a report is value rows, which
    :meth:`_decode_report` turns back into firing keys and result atoms
    through each rule's one :class:`FiringPlan`.  Replicas are seeded out-of-core:
    *worker_seeds* (a callable ``worker_id -> sorted atoms``) streams each
    worker only the relations it needs, in bounded chunks over its pipe;
    ``None`` means the workers seed themselves (the ``sqlite-file`` spec,
    whose replicas attach the coordinator's persistent file read-only).
    Workers are dedicated processes on private control pipes — unlike a
    task pool, round ``i``'s message to worker ``w`` is guaranteed to be
    processed by the same replica that saw rounds ``< i``.

    The shuffle exchange adds one thing: every worker pair is wired with a
    private duplex pipe before any process starts, so peer traffic never
    touches the coordinator.

    A worker that reports an error, or dies, fails the round with a
    :class:`~repro.exceptions.ParallelWorkerError` (a ``RuntimeError``)
    naming it — whichever worker it is and however many
    healthy workers are still busy (or wedged waiting for the dead one's
    frames): :meth:`_collect` waits on all control pipes at once.
    """

    def __init__(
        self,
        workers: int,
        tgds: Sequence[TGD],
        variant: str,
        store_spec: Tuple[str, ...],
        worker_seeds: Optional[Callable[[int], List[Atom]]],
        strategy: str,
        collect_metrics: bool,
        exchange: str,
    ) -> None:
        self.workers = workers
        null_scope = resolve_engine_class(variant).null_scope
        self._firing_plans = [
            FiringPlan(tgd, index, null_scope) for index, tgd in enumerate(tgds)
        ]
        interned: Dict[Any, Any] = {}
        self._wires = [_Wire(interned) for _ in range(workers)]
        context = multiprocessing.get_context()
        self._connections: List[Connection] = []
        self._processes: List[multiprocessing.process.BaseProcess] = []
        mesh: List[Dict[int, Connection]] = [{} for _ in range(workers)]
        if exchange == "shuffle":
            for low in range(workers):
                for high in range(low + 1, workers):
                    mesh[low][high], mesh[high][low] = context.Pipe(True)
        try:
            for worker_id in range(workers):
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_worker_main,
                    args=(
                        child_conn,
                        tuple(sorted(mesh[worker_id].items())),
                        worker_id,
                        workers,
                        tuple(tgds),
                        variant,
                        store_spec,
                        strategy,
                        collect_metrics,
                        exchange,
                    ),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._connections.append(parent_conn)
                self._processes.append(process)
            for peer_ends in mesh:
                for end in peer_ends.values():
                    end.close()
            if worker_seeds is not None:
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

    def _collect(self, decode: Optional[Callable[[int, Any], Any]] = None) -> List[Any]:
        """One report per worker, in worker order; raise on the first failure.

        Waits on *all* control pipes: under the shuffle exchange the healthy
        workers block on their failed peer's frames and never report, so
        receiving in worker order would hang behind them.  *decode* runs on
        each payload as it arrives, while slower workers are still matching.
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
                reports[worker_id] = payload if decode is None else decode(worker_id, payload)
        return reports

    def _decode_report(self, worker_id: int, report: WireReport) -> RoundReport:
        """Value rows back to ``(firing key, result atoms)``: both are functions
        of the row alone, evaluated here through the rule's firing plan."""
        fresh, fired_runs, skipped_runs, metrics = report
        wire = self._wires[worker_id]
        wire.absorb(fresh)
        plans = self._firing_plans
        fired: List[Tuple[object, Any]] = []
        for rule, values in wire.decode(fired_runs):
            plan = plans[rule]
            fired.append((plan.row_key(values), plan.atoms(values)))
        considered: List[object] = [key for key, _ in fired]
        considered.extend(plans[rule].row_key(values) for rule, values in wire.decode(skipped_runs))
        return considered, fired, metrics

    def initial(self) -> List[RoundReport]:
        for worker_id in range(self.workers):
            self._send(worker_id, ("initial",))
        return self._collect(self._decode_report)

    def delta(
        self,
        replicated: Sequence[Atom],
        seeds_by_worker: Sequence[Sequence[Tuple[int, Atom]]],
    ) -> List[RoundReport]:
        for worker_id, wire in enumerate(self._wires):
            replicated_runs = wire.encode_atoms(replicated)
            seed_runs = wire.encode(
                [(plan_id, atom.terms) for plan_id, atom in seeds_by_worker[worker_id]]
            )
            self._send(worker_id, ("delta", wire.take_fresh(), replicated_runs, seed_runs))
        return self._collect(self._decode_report)

    def round(
        self, round_index: int, heavy_routes: Tuple[HeavyRoute, ...]
    ) -> List[ShuffleReport]:
        for worker_id in range(self.workers):
            self._send(worker_id, ("round", round_index, heavy_routes))
        return self._collect()

    def close(self) -> None:
        for connection in self._connections:
            try:
                connection.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            connection.close()
        for process in self._processes:
            # A worker wedged mid-exchange (e.g. its peer crashed) never
            # reads the stop message; don't wait long before terminating.
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
    "first worker wins" and "union of everything" coincide.
    """

    def __init__(
        self,
        pool: Union[_LocalPool, _ProcessPool],
        table: _PlanTable,
        variant: str,
        store: AtomStore,
        tracer: AnyTracer,
        worker_sql: Dict[int, RegistrySnapshot],
    ) -> None:
        self._pool = pool
        self._store = store
        self._tracer = tracer
        self._worker_sql = worker_sql
        self._fired_keys: Set[object] = set()
        # predicate -> (every replica holds it in full, the plans it seeds);
        # a predicate no rule reads has no route and is never shipped.
        full, partitioned = replica_seed_split(table.tgds, variant)
        self._routes = {
            predicate: (predicate in full, table.by_predicate.get(predicate, ()))
            for predicate in full | partitioned
        }

    def _partition_work(
        self, delta: Sequence[Atom]
    ) -> Tuple[List[Atom], List[List[Tuple[int, Atom]]]]:
        """Split the delta by what each worker reads of it: the atoms of the
        *full* predicates (every worker, in the driver's sorted order), and
        per worker the ``(plan, seed atom)`` pairs it owns."""
        workers = self._pool.workers
        replicated: List[Atom] = []
        seeds: List[List[Tuple[int, Atom]]] = [[] for _ in range(workers)]
        for atom in delta:
            is_full, entries = self._routes.get(atom.predicate, (False, ()))
            if is_full:
                replicated.append(atom)
            for entry in entries:
                owner = atom_partition_of(atom, entry.plan.partition_positions, workers)
                seeds[owner].append((entry.plan_id, atom))
        return replicated, seeds

    def __call__(self, round_index: int, delta: Sequence[Atom]) -> RoundOutcome:
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
        fired_by_key: Dict[object, Tuple[Atom, ...]] = {}
        for considered, fired, metrics in reports:
            round_keys.extend(considered)
            for key, atoms in fired:
                fired_by_key.setdefault(key, atoms)
            if metrics is not None:
                worker_id, seconds, n_considered, n_fired, snapshot = metrics
                _emit_worker_round(
                    tracer, round_index + 1, worker_id, n_considered, n_fired, seconds
                )
                if snapshot is not None:
                    self._worker_sql[worker_id] = snapshot

        store = self._store
        fired_keys = self._fired_keys
        new_atoms: Set[Atom] = set()
        n_fired = 0
        # Traced runs only: rule -> [enumerated, fired, atoms, nulls-set],
        # attributed through the leading tgd_index of every firing key.
        rule_stats: Dict[int, List[Any]] = {}
        stats: List[Any] = []
        for key, atoms in fired_by_key.items():
            if key in fired_keys:
                continue
            n_fired += 1
            if traced:
                stats = rule_stats.setdefault(_key_rule(key), [0, 0, 0, set()])
                stats[1] += 1
            for atom in atoms:
                if atom not in new_atoms and not store.has_atom(atom):
                    new_atoms.add(atom)
                    if traced:
                        stats[2] += 1
                        for term in atom.terms:
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
        return RoundOutcome(len(round_keys), n_fired, new_atoms, rule_rows)


class _ShuffleStep:
    """Shuffle-exchange round: tick the barrier, fold the workers' reports.

    Workers own matching, both global dedups, and all peer-to-peer
    repartitioning (:mod:`repro.chase.exchange`); the coordinator's share
    of a round is the barrier message — carrying the skew detector's heavy
    table for the delta the driver just inserted — and the fold of
    per-worker reports into counts, trace events, and the merged new atoms
    (already globally deduplicated, each owned by exactly one worker; the
    driver's sort merges the disjoint shares).
    """

    def __init__(
        self,
        pool: Union[_LocalPool, _ProcessPool],
        detector: Optional[SkewDetector],
        tracer: AnyTracer,
        worker_sql: Dict[int, RegistrySnapshot],
    ) -> None:
        self._pool = pool
        self._detector = detector
        self._tracer = tracer
        self._worker_sql = worker_sql
        self._known_heavy: Set[Tuple[int, int]] = set()

    def __call__(self, round_index: int, delta: Sequence[Atom]) -> RoundOutcome:
        tracer = self._tracer
        traced = tracer.enabled
        heavy: Tuple[HeavyRoute, ...] = ()
        if self._detector is not None:
            heavy = self._detector.heavy_routes(delta)
            if traced:
                for route, split in heavy:
                    if route not in self._known_heavy:
                        self._known_heavy.add(route)
                        tracer.emit(
                            "repartition",
                            round=round_index,
                            plan=route[0],
                            key_hash=route[1],
                            workers=list(split),
                        )
        reports = self._pool.round(round_index, heavy)

        considered = 0
        fired = 0
        new_atoms: List[Atom] = []
        # Traced runs only: rule -> [enumerated, fired, atoms, nulls].
        rule_stats: Dict[int, List[int]] = {}
        for report in reports:
            considered += report.considered
            fired += report.fired
            new_atoms.extend(report.new_atoms)
            if traced:
                _emit_worker_round(
                    tracer, round_index + 1, report.worker, report.considered,
                    report.matched, report.dur,
                )
                tracer.emit(
                    "exchange",
                    round=round_index + 1,
                    worker=report.worker,
                    keys_routed=report.keys_routed,
                    atoms_routed=report.atoms_routed,
                    work_routed=report.work_routed,
                    dur=round(report.dur, 9),
                )
                for column, counts in enumerate(
                    (
                        report.enumerated_by_rule,
                        report.fired_by_rule,
                        report.atoms_by_rule,
                        report.nulls_by_rule,
                    )
                ):
                    for rule, count in counts:
                        rule_stats.setdefault(rule, [0, 0, 0, 0])[column] += count
                if report.sql is not None:
                    self._worker_sql[report.worker] = report.sql
        rule_rows = [
            RuleRow(rule, enumerated, rule_fired, atoms_created, nulls, 0.0)
            for rule, (enumerated, rule_fired, atoms_created, nulls) in rule_stats.items()
        ]
        return RoundOutcome(considered, fired, new_atoms, rule_rows)


# --------------------------------------------------------------------------- #
# The coordinator


class ParallelChaseExecutor:
    """Coordinator of the hash-partitioned parallel chase.

    Owns the authoritative store and picks the worker pool and the round
    step of the configured exchange topology; the budget accounting, the
    sorted insert and the result are the shared round driver's
    (:func:`repro.chase.rounds.run_rounds`).  Both steps' merges are
    order-insensitive (see the module docstring), which is what makes the
    result identical across worker counts, executors, and backends.
    """

    def __init__(
        self,
        variant: str = "semi-oblivious",
        workers: int = 2,
        limits: Optional[ChaseLimits] = None,
        on_limit: str = "return",
        executor: str = "auto",
        strategy: str = "indexed",
        exchange: str = "coordinator",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if on_limit not in ("return", "raise"):
            raise ValueError("on_limit must be 'return' or 'raise'")
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        if strategy not in ("indexed", "sql-pushdown"):
            raise ValueError(
                "the parallel chase runs the 'indexed' or 'sql-pushdown' "
                f"matching engines, got {strategy!r}"
            )
        if exchange not in EXCHANGES:
            raise ValueError(f"exchange must be one of {EXCHANGES}, got {exchange!r}")
        resolve_engine_class(variant)  # validate eagerly
        self.variant = variant
        self.workers = workers
        self.limits = limits if limits is not None else ChaseLimits()
        self.on_limit = on_limit
        self.executor = executor
        self.strategy = strategy
        self.exchange = exchange

    # ------------------------------------------------------------------ #

    def _resolve_executor(self, store: AtomStore) -> str:
        from ..storage.database import RelationalDatabase
        from ..storage.sqlbackend import SqliteAtomStore

        executor = self.executor
        if executor == "auto":
            if self.workers == 1:
                executor = "serial"
            else:
                # The sqlite3 module serializes access to a shared connection,
                # so threads buy nothing there; processes with per-worker
                # replicas give the store its own core like the relational
                # backend.
                executor = (
                    "process"
                    if isinstance(store, (RelationalDatabase, SqliteAtomStore))
                    else "thread"
                )
        return executor

    def _make_pool(
        self, tgds: Sequence[TGD], store: AtomStore, metrics: Optional[MetricsRegistry]
    ) -> Union[_LocalPool, _ProcessPool]:
        """The worker pool for *store*; *metrics* is the coordinator's
        registry on traced runs (workers then collect theirs too)."""
        from ..storage.database import RelationalDatabase
        from ..storage.sqlbackend import SqliteAtomStore

        executor = self._resolve_executor(store)
        if executor != "process" or self.workers == 1:
            return _LocalPool(
                self.workers, tgds, self.variant, store, self.strategy,
                use_threads=executor == "thread" and self.workers > 1,
                exchange=self.exchange, metrics=metrics,
            )
        worker_seeds: Optional[Callable[[int], List[Atom]]] = None
        if isinstance(store, SqliteAtomStore) and store.is_persistent:
            # Out-of-core seeding: commit the seed so workers attaching the
            # file read-only see it, and ship no atoms at all — each replica
            # is an overlay over the coordinator's own file.
            store.flush()
            store_spec: Tuple[str, ...] = ("sqlite-file", store.path)
        else:
            if isinstance(store, RelationalDatabase):
                store_spec = ("relational",)
            elif isinstance(store, SqliteAtomStore):
                store_spec = ("sqlite",)
            else:
                store_spec = ("instance",)
            # The fully-replicated portion is identical for every worker:
            # collect it once, not once per worker.
            full, _ = replica_seed_split(tgds, self.variant)
            full_atoms = collect_full_seed_atoms(store, full)

            def worker_seeds(worker_id: int) -> List[Atom]:
                # Partition-streamed seeding (see worker_seed_atoms): sorted,
                # so per-worker replica construction order stays
                # deterministic.  A shuffle worker also gets its hash share
                # of the relations matching never reads — it is the
                # atom-dedup owner of that share.
                return worker_seed_atoms(
                    store,
                    tgds,
                    self.variant,
                    self.workers,
                    worker_id,
                    full_atoms=full_atoms,
                    include_unused_share=self.exchange == "shuffle",
                )

        return _ProcessPool(
            self.workers, tgds, self.variant, store_spec, worker_seeds, self.strategy,
            collect_metrics=metrics is not None, exchange=self.exchange,
        )

    def _skew_detector(
        self, table: _PlanTable, metrics: Optional[MetricsRegistry]
    ) -> Optional[SkewDetector]:
        # The in-SQL partition filter of the pushdown strategy cannot see a
        # heavy table, so skew splitting stays off there; routing is then
        # degenerate (replicas are broadcast-complete) and still correct.
        if self.strategy == "sql-pushdown":
            return None
        return SkewDetector(
            [
                (entry.plan_id, entry.seed_predicate, entry.plan.partition_positions)
                for entry in table.entries
            ],
            self.workers,
            metrics=metrics,
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
        workers) plus one ``worker_round`` event per (worker, round) and,
        on sqlite stores, merged ``sql_family`` timings — worker replicas
        ship their cumulative registry snapshots home inside the round
        reports.  ``chase_start``/``chase_end`` are the caller's job
        (:func:`repro.chase.engine.chase` emits them).  Tracing never
        changes the result.

        With ``exchange="shuffle"`` the round step is :class:`_ShuffleStep`:
        same contract, byte-identical result, but workers repartition
        deltas among themselves and the coordinator only drives round
        barriers (plus ``exchange``/``repartition`` events on traced runs).
        """
        active_tracer = as_tracer(tracer)
        tgd_list = tuple(tgds)
        if store is None:
            store = Instance()
        insert_sorted(store, database.atoms())
        table = _PlanTable(tgd_list)

        # Traced runs: one registry for the coordinator's own SQL statements
        # (and, under the shared-store pools, the thread workers' queries),
        # the shuffle counters and the skew histograms.
        registry = MetricsRegistry() if active_tracer.enabled else None
        timed_store = None
        if registry is not None:
            from ..storage.sqlbackend import SqliteAtomStore

            if isinstance(store, SqliteAtomStore):
                timed_store = store
                timed_store.set_statement_metrics(StatementMetrics(registry))
        # Latest cumulative registry snapshot per process worker.
        worker_sql: Dict[int, RegistrySnapshot] = {}

        pool = self._make_pool(tgd_list, store, registry)
        try:
            step: RoundStep
            if self.exchange == "shuffle":
                step = _ShuffleStep(
                    pool, self._skew_detector(table, registry), active_tracer, worker_sql
                )
            else:
                step = _CoordinatorStep(
                    pool, table, self.variant, store, active_tracer, worker_sql
                )
            return run_rounds(
                step, store, self.limits, self.on_limit, self.variant, active_tracer
            )
        finally:
            pool.close()
            if registry is not None:
                # The merged coordinator+worker ``sql_family`` events.
                for snapshot in worker_sql.values():
                    registry.merge_snapshot(snapshot)
                for stats in sql_family_stats(registry.snapshot()):
                    active_tracer.emit("sql_family", **stats)
            if timed_store is not None:
                timed_store.set_statement_metrics(None)


def parallel_chase(
    database: Database,
    tgds: TGDSet,
    variant: str = "semi-oblivious",
    workers: int = 2,
    limits: Optional[ChaseLimits] = None,
    on_limit: str = "return",
    strategy: str = "indexed",
    backend: str = "instance",
    store: Optional[AtomStore] = None,
    executor: str = "auto",
    materialize: bool = True,
    tracer: Optional[AnyTracer] = None,
    exchange: str = "coordinator",
) -> ChaseResult:
    """Run the hash-partitioned parallel chase of *database* with *tgds*.

    Accepts the same parameters as :func:`repro.chase.engine.chase` plus

    workers:
        Number of partition workers (``1`` degenerates to an in-process
        run through the same partition/merge machinery).
    executor:
        ``"auto"`` (default) picks threads for the in-memory backend and
        processes with per-worker store replicas for the relational and
        sqlite ones; ``"serial"`` / ``"thread"`` / ``"process"`` force a
        pool kind.  Process replicas of a persistent sqlite store attach
        the coordinator's file read-only instead of receiving a seed.
    exchange:
        ``"coordinator"`` (default) round-trips every round's results
        through the coordinator merge; ``"shuffle"`` has workers
        hash-repartition firing keys and result atoms directly to peer
        workers between rounds, with the coordinator reduced to barrier
        control, budget accounting, and trace merging (see
        :mod:`repro.chase.exchange`).

    ``materialize=False`` skips the eager ``result.instance`` build, like
    :func:`~repro.chase.engine.chase`.  The result is guaranteed identical
    — atoms, null names, round and trigger counts — to the serial
    engine's, for every worker count and executor kind.
    """
    if strategy not in ("indexed", "sql-pushdown"):
        raise ValueError(
            "the parallel chase runs the 'indexed' or 'sql-pushdown' "
            f"matching engines, got {strategy!r}"
        )
    if store is None:
        store = make_backend_store(backend)
    if strategy == "sql-pushdown":
        from ..storage.sqlbackend import SqliteAtomStore

        if not isinstance(store, SqliteAtomStore):
            raise ValueError(
                "strategy='sql-pushdown' matches inside SQLite and requires "
                "the sqlite backend (backend='sqlite[:path]' or an explicit "
                "SqliteAtomStore store)"
            )
    coordinator = ParallelChaseExecutor(
        variant=variant,
        workers=workers,
        limits=limits,
        on_limit=on_limit,
        executor=executor,
        strategy=strategy,
        exchange=exchange,
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
