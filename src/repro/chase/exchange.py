"""Shuffle exchange for the parallel chase: peer-to-peer delta repartitioning.

The coordinator-merge protocol of :mod:`repro.chase.parallel` round-trips
every derived atom through the coordinator: workers report, the coordinator
dedups and re-broadcasts.  The shuffle exchange instead lets workers
repartition each round's results directly among themselves — the multi-round
hash shuffle of the HyperCube/K-Join literature — and reduces the
coordinator to round-barrier control, budget accounting, and trace merging.

Every round runs four worker-side phases, separated by all-to-all exchanges
(pipe frames between processes, shared in-memory queues between threads):

1. **route** — each worker ships the new atoms it came to own last round to
   the workers that must act on them: one ``("w", plan_id, atom)`` work item
   to the owner of the atom's join-key hash under that plan (with heavy
   hashes split across workers — see :class:`RoutingTable`), plus a
   ``("d", atom)`` broadcast for atoms of fully-replicated predicates
   (non-seed join slots and the restricted head check read those relations
   in full; they also form the exact semi-naive exclusion set, because only
   multi-atom-body predicates can appear at slots before a seed);
2. **match** — apply the broadcast delta to the private replica (process
   pools), run the owned work items through the join plans, and route every
   *firing key* enumerated — fired or not — to the key's owning worker
   (stable hash of the key, :func:`repro.core.indexing.key_partition_of`);
3. **keys** — the key owner performs the global firing-key dedup the
   coordinator used to do: a key fires at most once per run, and because
   firing keys, head atoms, and invented nulls are functions of the key
   alone, *which* worker enumerated it first is unobservable.  Result atoms
   of newly-fired keys are routed to their atom owners (whole-tuple hash);
4. **atoms** — the atom owner dedups against its partition of the global
   instance, stages the genuinely new atoms for next round's route phase,
   and sends the coordinator one report: counts, per-rule stats, its new
   atoms (the coordinator sorts the merged union), and comms counters.

Determinism argument: ownership makes both dedups global functions of the
run's derivations (not of scheduling), the coordinator inserts the merged
new atoms in sorted order exactly like the serial engine, and skew splits
only move *enumeration* work between workers — duplicates collapse at the
unique key owner — so results stay byte-identical to the serial chase at
every worker count, pool kind, and routing table.

Everything in this module is transport-free: frames are plain picklable
tuples, routing tables ship as plain tuples of ints (reprolint's
process-boundary rule enforces that no live handle ever enters a
peer-to-peer message), and the phase methods neither read pipes nor hold
locks — the pools in :mod:`repro.chase.parallel` own all I/O.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    cast,
)

from ..core.atoms import Atom, atom_sort_key
from ..core.indexing import atom_partition_of, key_partition_of, partition_hash
from ..core.predicates import Predicate
from ..core.terms import Null
from ..obs.clock import MonotonicClock
from ..obs.metrics import MetricsRegistry
from ..storage.atom_store import AtomStore
from .rounds import insert_atoms

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .parallel import _MatchWorker

#: Exchange topologies accepted by the parallel chase: ``"coordinator"``
#: (the original merge-through-the-coordinator protocol, the default) and
#: ``"shuffle"`` (workers repartition deltas among themselves).
EXCHANGES = ("coordinator", "shuffle")

#: Items per exchange frame: bounds the size of any single pickled payload
#: crossing a peer pipe, mirroring ``SEED_CHUNK_ATOMS`` on the seed path.
EXCHANGE_CHUNK_ITEMS = 2048

#: A route's delta count must exceed ``SKEW_FACTOR`` times its plan's fair
#: per-worker share (and :data:`SKEW_MIN_COUNT`) to be declared heavy.
SKEW_FACTOR = 2.0

#: Floor below which no route is worth splitting, whatever its share.
SKEW_MIN_COUNT = 16

#: The worker-side phases, in execution order.
PHASES = ("route", "keys", "atoms")

#: One peer-to-peer message: ``(round, phase, sender, chunk, n_chunks,
#: items)``.  A phase's payload from one sender is split into ``n_chunks``
#: frames of at most :data:`EXCHANGE_CHUNK_ITEMS` items each.
Frame = Tuple[int, str, int, int, int, Tuple[object, ...]]

#: ``((plan_id, route_hash), (worker, ...))`` — a heavy route and the
#: workers its seeds are split across.  Heavy tables are built by
#: :class:`SkewDetector` and shipped inside round-barrier messages as plain
#: tuples (never as live :class:`RoutingTable` objects).
HeavyRoute = Tuple[Tuple[int, int], Tuple[int, ...]]

# Wire-item shapes, hoisted to module scope: evaluating a ``Tuple[...]``
# subscript is a typing-machinery cache lookup, far too slow for the
# per-item phase loops (it profiled at ~5% of a shuffle worker's round).
_LeadKey = Tuple[int, object]
_WorkWire = Tuple[object, ...]
_KeyWire = Tuple[object, Optional[Tuple[Atom, ...]]]
_AtomWire = Tuple[int, Atom]


def iter_frames(
    round_index: int,
    phase: str,
    sender: int,
    items: Sequence[object],
    chunk_size: int = EXCHANGE_CHUNK_ITEMS,
) -> Iterator[Frame]:
    """Split one phase payload into bounded frames (always at least one)."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    n_chunks = max(1, -(-len(items) // chunk_size))
    for chunk in range(n_chunks):
        yield (
            round_index,
            phase,
            sender,
            chunk,
            n_chunks,
            tuple(items[chunk * chunk_size:(chunk + 1) * chunk_size]),
        )


class FrameAssembler:
    """Reassembles per-(round, phase, sender) payloads from exchange frames.

    Frames may interleave arbitrarily across senders and may even arrive for
    a *later* phase of the same round before an earlier phase completes (a
    fast peer moves on as soon as its own inputs are in); the assembler
    buffers by stream so the consumer can wait on exactly the streams it
    needs.
    """

    def __init__(self) -> None:
        self._streams: Dict[Tuple[int, str, int], Tuple[int, Dict[int, Tuple[object, ...]]]] = {}

    def feed(self, frame: Frame) -> Optional[Tuple[int, str, int]]:
        """Absorb one frame; return its stream key once the stream completes."""
        round_index, phase, sender, chunk, n_chunks, items = frame
        if n_chunks < 1 or not 0 <= chunk < n_chunks:
            raise ValueError(f"malformed exchange frame: chunk {chunk} of {n_chunks}")
        stream = (round_index, phase, sender)
        expected, chunks = self._streams.setdefault(stream, (n_chunks, {}))
        if expected != n_chunks:
            raise ValueError(
                f"exchange stream {stream} announced {expected} chunks, "
                f"then {n_chunks}"
            )
        if chunk in chunks:
            raise ValueError(f"duplicate chunk {chunk} in exchange stream {stream}")
        chunks[chunk] = items
        if len(chunks) == expected:
            return stream
        return None

    def pop(self, round_index: int, phase: str, sender: int) -> Optional[List[object]]:
        """Return (and forget) a completed stream's payload, else ``None``."""
        stream = (round_index, phase, sender)
        entry = self._streams.get(stream)
        if entry is None or len(entry[1]) != entry[0]:
            return None
        expected, chunks = self._streams.pop(stream)
        payload: List[object] = []
        for chunk in range(expected):
            payload.extend(chunks[chunk])
        return payload


class RoutingTable:
    """Assigns every unit of exchange traffic to its owning worker.

    Three independent ownership maps, all stable across processes:

    * **work** — a ``(plan, seed atom)`` pair belongs to the worker owning
      the stable hash of the atom's terms at the plan's join-key positions
      (:meth:`JoinPlan.partition_key <repro.chase.matching.JoinPlan.partition_key>`),
      unless the heavy table splits that hash: then the pair goes to one of
      the split workers chosen by the whole-tuple hash.  Splitting is pure
      load balancing — seed co-location is not a correctness requirement,
      because non-seed join inputs are fully replicated and all dedup
      happens at key/atom owners;
    * **keys** — a firing key belongs to ``stable_key_hash(key) % n``;
    * **atoms** — an atom belongs to ``partition_hash(atom.terms) % n``.

    The table itself never crosses a process boundary: workers rebuild it
    from the TGD set and apply the plain-tuple heavy table carried by each
    round-barrier message.
    """

    def __init__(
        self,
        n_workers: int,
        plan_positions: Sequence[Tuple[int, ...]],
        heavy_routes: Sequence[HeavyRoute] = (),
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.plan_positions = tuple(plan_positions)
        self._heavy: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self.set_heavy(heavy_routes)

    def set_heavy(self, heavy_routes: Sequence[HeavyRoute]) -> None:
        """Install the round's heavy table (plain ``HeavyRoute`` tuples)."""
        self._heavy = {route: tuple(workers) for route, workers in heavy_routes}

    @property
    def heavy_routes(self) -> Tuple[HeavyRoute, ...]:
        return tuple(sorted(self._heavy.items()))

    def plan_route_hash(self, plan_id: int, atom: Atom) -> int:
        positions = self.plan_positions[plan_id]
        terms = (
            atom.terms
            if not positions
            else tuple(atom.terms[position] for position in positions)
        )
        return partition_hash(terms)

    def work_owner(self, plan_id: int, atom: Atom) -> int:
        route_hash = self.plan_route_hash(plan_id, atom)
        split = self._heavy.get((plan_id, route_hash))
        if split:
            return split[partition_hash(atom.terms) % len(split)]
        return route_hash % self.n_workers

    def key_owner(self, key: object) -> int:
        return key_partition_of(key, self.n_workers)

    def atom_owner(self, atom: Atom) -> int:
        return atom_partition_of(atom, (), self.n_workers)


class SkewDetector:
    """Flags heavy join-key hashes from per-partition delta-count histograms.

    Fed each round's merged delta, it counts seeds per ``(plan,
    route_hash)`` for every multi-way plan, records the counts as
    ``exchange_partition_delta`` histograms in the (obs) metrics registry,
    and returns the routes whose count exceeds both :data:`SKEW_MIN_COUNT`
    and ``factor`` times the plan's fair per-worker share.  Detection is a
    pure function of the sorted delta, so every run — whatever its worker
    count — computes the same heavy table at the same round.
    """

    def __init__(
        self,
        plans: Sequence[Tuple[int, Predicate, Tuple[int, ...]]],
        n_workers: int,
        factor: float = SKEW_FACTOR,
        min_count: int = SKEW_MIN_COUNT,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.n_workers = n_workers
        self.factor = factor
        self.min_count = min_count
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._by_predicate: Dict[Predicate, List[Tuple[int, Tuple[int, ...]]]] = {}
        for plan_id, predicate, positions in plans:
            if positions:  # only multi-way joins have a splittable key
                self._by_predicate.setdefault(predicate, []).append((plan_id, positions))

    def heavy_routes(self, delta: Sequence[Atom]) -> Tuple[HeavyRoute, ...]:
        """The heavy table the next round's routing should apply."""
        if self.n_workers < 2 or not self._by_predicate:
            return ()
        counts: Dict[Tuple[int, int], int] = {}
        totals: Dict[int, int] = {}
        for atom in delta:
            for plan_id, positions in self._by_predicate.get(atom.predicate, ()):
                terms = tuple(atom.terms[position] for position in positions)
                route = (plan_id, partition_hash(terms))
                counts[route] = counts.get(route, 0) + 1
                totals[plan_id] = totals.get(plan_id, 0) + 1
        heavy: List[HeavyRoute] = []
        split = tuple(range(self.n_workers))
        for route in sorted(counts):
            count = counts[route]
            plan_id = route[0]
            self.metrics.histogram(
                "exchange_partition_delta", plan=str(plan_id)
            ).observe(float(count))
            threshold = max(self.min_count, self.factor * totals[plan_id] / self.n_workers)
            if count > threshold:
                heavy.append((route, split))
        return tuple(heavy)


class ShuffleReport(NamedTuple):
    """One worker's per-round report to the coordinator (plain picklable)."""

    worker: int
    #: Firing keys this worker enumerated while matching (match side).
    considered: int
    #: Triggers this worker matched as firing (match side, pre-dedup).
    matched: int
    #: Keys newly fired at this worker as *key owner* (globally deduped).
    fired: int
    fired_by_rule: Tuple[Tuple[int, int], ...]
    enumerated_by_rule: Tuple[Tuple[int, int], ...]
    #: The genuinely new atoms this worker owns (unsorted; the shares are
    #: disjoint and the coordinator sorts the merged union).
    new_atoms: Tuple[Atom, ...]
    atoms_by_rule: Tuple[Tuple[int, int], ...]
    nulls_by_rule: Tuple[Tuple[int, int], ...]
    #: Comms counters: items shipped to *other* workers per phase.
    keys_routed: int
    atoms_routed: int
    work_routed: int
    dur: float
    sql: Optional[Dict[str, List[Dict[str, object]]]]


def _rule_of(key: object) -> int:
    """Every firing-key kind leads with the TGD index."""
    return cast(_LeadKey, key)[0]


def parse_crash_spec(spec: Optional[str]) -> Optional[Tuple[int, Optional[int]]]:
    """Parse the ``REPRO_EXCHANGE_CRASH`` test hook: ``"round[:worker]"``."""
    if not spec:
        return None
    head, _, tail = spec.partition(":")
    return (int(head), int(tail) if tail else None)


class ShuffleWorker:
    """The per-worker state machine of the shuffle exchange.

    Wraps a match worker with the ownership sets and phase methods described
    in the module docstring.  All methods are pure compute over plain
    payload lists — the hosting pool moves the returned outboxes (one list
    per destination worker, self included) between workers.
    """

    def __init__(
        self,
        match_worker: "_MatchWorker",
        plans_by_predicate: Dict[Predicate, Tuple[int, ...]],
        full_predicates: Set[Predicate],
        shared_store: bool,
        pushdown: bool,
        crash_spec: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        report_metrics: bool = False,
    ) -> None:
        self.match_worker = match_worker
        self.worker_id = match_worker.worker_id
        self.n_workers = match_worker.n_workers
        self.routing = RoutingTable(
            self.n_workers,
            tuple(entry.plan.partition_positions for entry in match_worker.table.entries),
        )
        self.plans_by_predicate = plans_by_predicate
        self.full_predicates = full_predicates
        self.shared_store = shared_store
        self.pushdown = pushdown
        self.crash = parse_crash_spec(crash_spec)
        self.metrics = metrics
        #: Ship the registry snapshot home in reports (process pools, whose
        #: registry is private; shared-store pools write straight into the
        #: coordinator's registry and ship nothing).
        self.report_metrics = report_metrics
        self.owned_keys: Set[object] = set()
        self.owned_atoms: Set[Atom] = set()
        #: New atoms this worker came to own last round — the input of the
        #: next route phase (order free, see :meth:`phase_atoms`).
        self._staged: List[Atom] = []
        self._clock = MonotonicClock()
        self._round_started = 0.0
        self._match_considered = 0
        self._match_fired = 0
        self._keys_routed = 0
        self._atoms_routed = 0
        self._work_routed = 0
        self._owner_fired = 0
        self._fired_by_rule: Dict[int, int] = {}
        self._enumerated_by_rule: Dict[int, int] = {}

    # ------------------------------------------------------------------ #

    def seed_owned_atoms(self, store: AtomStore) -> None:
        """Claim this worker's hash partition of the seed instance.

        The owned set must mirror global instance membership for this
        worker's share exactly — it is the distributed replacement for the
        coordinator's ``store.has_atom`` dedup.
        """
        for predicate in store.predicates():
            self.owned_atoms.update(
                store.atoms_partition(predicate, (), self.n_workers, self.worker_id)
            )

    def _count(self, name: str, amount: int) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name, worker=str(self.worker_id)).add(amount)

    def _outboxes(self) -> List[List[object]]:
        return [[] for _ in range(self.n_workers)]

    # ------------------------------------------------------------------ #

    def phase_route(
        self, round_index: int, heavy_routes: Sequence[HeavyRoute]
    ) -> List[List[object]]:
        """Ship last round's owned new atoms as work items and broadcasts."""
        self._round_started = self._clock.now()
        self.routing.set_heavy(heavy_routes)
        outboxes = self._outboxes()
        routed = 0
        for atom in self._staged:
            if self.pushdown or atom.predicate in self.full_predicates:
                # Replica/exclusion broadcast: every worker needs these
                # rows (all rows, under pushdown — the compiled SQL scans
                # its own store).
                for destination in range(self.n_workers):
                    outboxes[destination].append(("d", atom))
                    if destination != self.worker_id:
                        routed += 1
            if not self.pushdown:
                for plan_id in self.plans_by_predicate.get(atom.predicate, ()):
                    destination = self.routing.work_owner(plan_id, atom)
                    outboxes[destination].append(("w", plan_id, atom))
                    if destination != self.worker_id:
                        routed += 1
        self._staged = []
        self._work_routed = routed
        self._count("exchange_work_items", routed)
        return outboxes

    def phase_match(
        self, round_index: int, inboxes: Sequence[Sequence[object]]
    ) -> List[List[object]]:
        """Apply the routed delta, match owned work, route firing keys."""
        work: List[Tuple[int, Atom]] = []
        delta: List[Atom] = []
        for payload in inboxes:
            for item in payload:
                entry = cast(_WorkWire, item)
                if entry[0] == "w":
                    work.append((cast(int, entry[1]), cast(Atom, entry[2])))
                else:
                    delta.append(cast(Atom, entry[1]))
        delta.sort(key=atom_sort_key)
        worker = self.match_worker
        if round_index == 0:
            considered, fired, _ = worker.initial_round()
        else:
            if not self.shared_store:
                insert_atoms(worker.store, delta)
            # Work order is free: key/atom dedup is ownership-global and the
            # coordinator sorts the merged new atoms before assigning seqs,
            # so nothing downstream can observe enumeration order.  (Under
            # pushdown there is no work: the compiled plans self-select it
            # in SQL from the broadcast the replica now holds.)
            considered, fired, _ = worker.delta_round(delta, work)
        self._match_considered = len(considered)
        self._match_fired = len(fired)
        fired_map = dict(fired)
        outboxes = self._outboxes()
        routed = 0
        for key in considered:
            destination = self.routing.key_owner(key)
            outboxes[destination].append((key, fired_map.get(key)))
            if destination != self.worker_id:
                routed += 1
        self._keys_routed = routed
        self._count("exchange_keys", routed)
        return outboxes

    def phase_keys(
        self, round_index: int, inboxes: Sequence[Sequence[object]]
    ) -> List[List[object]]:
        """Globally dedup owned firing keys; route new result atoms."""
        if self.crash is not None and round_index == self.crash[0]:
            if self.crash[1] is None or self.crash[1] == self.worker_id:
                raise RuntimeError(
                    f"injected exchange crash (worker {self.worker_id}, "
                    f"round {round_index})"
                )
        new_fired: Dict[object, Tuple[Atom, ...]] = {}
        enumerated: Dict[int, int] = {}
        round_keys: List[object] = []
        for payload in inboxes:
            for item in payload:
                key, atoms = cast(_KeyWire, item)
                round_keys.append(key)
                rule = _rule_of(key)
                enumerated[rule] = enumerated.get(rule, 0) + 1
                if atoms is not None and key not in self.owned_keys:
                    # setdefault mirrors the coordinator merge: within a
                    # round, every worker reporting a key as fired reports
                    # the same atoms (functions of the key alone).
                    new_fired.setdefault(key, atoms)
        self.owned_keys.update(round_keys)
        fired_by_rule: Dict[int, int] = {}
        outboxes = self._outboxes()
        routed = 0
        for key, atoms in new_fired.items():
            rule = _rule_of(key)
            fired_by_rule[rule] = fired_by_rule.get(rule, 0) + 1
            for atom in atoms:
                destination = self.routing.atom_owner(atom)
                outboxes[destination].append((rule, atom))
                if destination != self.worker_id:
                    routed += 1
        self._owner_fired = len(new_fired)
        self._fired_by_rule = fired_by_rule
        self._enumerated_by_rule = enumerated
        self._atoms_routed = routed
        self._count("exchange_atoms", routed)
        return outboxes

    def phase_atoms(
        self, round_index: int, inboxes: Sequence[Sequence[object]]
    ) -> ShuffleReport:
        """Dedup owned atoms against the global instance; report the round."""
        new_atoms: Dict[Atom, int] = {}
        for payload in inboxes:
            for item in payload:
                rule, atom = cast(_AtomWire, item)
                if atom in self.owned_atoms:
                    continue
                current = new_atoms.get(atom)
                if current is None or rule < current:
                    # Deterministic attribution: the smallest rule index
                    # among this round's producers gets the atom.
                    new_atoms[atom] = rule
        self.owned_atoms.update(new_atoms)
        # No sort: staged order only shapes next round's wire traffic, and
        # the coordinator canonicalises by sorting the merged atoms anyway.
        self._staged = list(new_atoms)
        atoms_by_rule: Dict[int, int] = {}
        nulls_by_rule: Dict[int, Set[Null]] = {}
        for atom in self._staged:
            rule = new_atoms[atom]
            atoms_by_rule[rule] = atoms_by_rule.get(rule, 0) + 1
            for term in atom.terms:
                if isinstance(term, Null):
                    nulls_by_rule.setdefault(rule, set()).add(term)
        snapshot = (
            self.metrics.snapshot()
            if self.metrics is not None and self.report_metrics
            else None
        )
        report = ShuffleReport(
            worker=self.worker_id,
            considered=self._match_considered,
            matched=self._match_fired,
            fired=self._owner_fired,
            fired_by_rule=tuple(sorted(self._fired_by_rule.items())),
            enumerated_by_rule=tuple(sorted(self._enumerated_by_rule.items())),
            new_atoms=tuple(self._staged),
            atoms_by_rule=tuple(sorted(atoms_by_rule.items())),
            nulls_by_rule=tuple(
                sorted((rule, len(nulls)) for rule, nulls in nulls_by_rule.items())
            ),
            keys_routed=self._keys_routed,
            atoms_routed=self._atoms_routed,
            work_routed=self._work_routed,
            dur=self._clock.now() - self._round_started,
            sql=snapshot,
        )
        self._fired_by_rule = {}
        self._enumerated_by_rule = {}
        return report
