"""Indexed, delta-driven trigger matching (the semi-naive join subsystem).

The naive reference path (:func:`repro.chase.triggers.triggers_on`) treats a
round's trigger enumeration as a full backtracking join over whole
per-predicate buckets and, for multi-atom bodies, enumerates *all*
homomorphisms before post-filtering against the round's frontier.  This
module replaces that with the two classic database techniques:

* **index intersection** — candidate atoms for a body atom are resolved
  through the store's ``(predicate, position, term)`` hash indexes
  (:meth:`AtomStore.atoms_matching`) instead of bucket scans, and the join
  order is chosen greedily by selectivity (most bound positions first,
  smallest relation as tie-break);
* **semi-naive (delta-driven) evaluation** — at round ``i`` every new
  trigger must use at least one atom added in round ``i-1``, so the engine
  *seeds* each compatible body-atom slot with each delta atom and joins
  outward.  Homomorphisms that touch several delta atoms are produced
  exactly once thanks to the standard ordering trick: when slot ``j`` is
  the seed, slots before ``j`` may only match *old* (pre-delta) atoms.

Both paths work against any :class:`repro.storage.atom_store.AtomStore`
(:class:`~repro.core.instances.Instance` or
:class:`~repro.storage.database.RelationalDatabase`), which is what lets the
chase run unchanged over either backend.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from ..core.atoms import Atom
from ..core.indexing import partition_hash
from ..core.instances import Instance
from ..core.predicates import Predicate
from ..core.substitutions import Substitution, match_atom
from ..core.terms import Constant, Term
from ..core.tgds import TGD
from .triggers import triggers_on

if TYPE_CHECKING:  # pragma: no cover - typing only; keeps storage out of module load
    from ..storage.atom_store import AtomStore

#: One enumerated trigger as the firing loops consume it: ``(rule index, body
#: homomorphism)``; ``Trigger(tgd, index, Substitution(mapping))`` wraps one.
Match = Tuple[int, Dict[Term, Term]]

#: Trigger-engine strategies accepted by the chase engines and ``chase()``.
#: ``"indexed"`` and ``"naive"`` are trigger sources; ``"sql-pushdown"``
#: applies *whole rounds* as set-based SQL batches inside the sqlite backend
#: (see :mod:`repro.storage.sqlbackend.pushdown`) — it is routed by
#: :func:`repro.chase.engine.chase` rather than through a trigger source.
STRATEGIES = ("indexed", "naive", "sql-pushdown")


def _bound_positions(pattern: Atom, mapping: Dict[Term, Term]) -> Dict[int, Term]:
    """Return the positions of *pattern* already determined by *mapping*.

    Constants in the pattern bind their position directly; variables bind it
    when *mapping* assigns them an image.
    """
    bindings: Dict[int, Term] = {}
    for position, term in enumerate(pattern.terms):
        if isinstance(term, Constant):
            bindings[position] = term
        else:
            image = mapping.get(term)
            if image is not None:
                bindings[position] = image
    return bindings


def _join(
    store: "AtomStore",
    patterns: Sequence[Atom],
    remaining: Tuple[int, ...],
    mapping: Dict[Term, Term],
    delta: Optional[AbstractSet[Atom]],
    seed_slot: int,
) -> Iterator[Dict[Term, Term]]:
    """Recursively extend *mapping* over the *remaining* slots of *patterns*.

    The next slot is chosen greedily: most bound positions first, smallest
    relation as tie-break.  When *delta* is given, slots before *seed_slot*
    reject candidates from *delta* (the semi-naive dedup constraint).
    """
    if not remaining:
        yield mapping
        return
    best = remaining[0]
    bindings = _bound_positions(patterns[best], mapping)
    if len(remaining) > 1:
        best_rank = (-len(bindings), store.predicate_cardinality(patterns[best].predicate))
        for slot in remaining[1:]:
            pattern = patterns[slot]
            bound = _bound_positions(pattern, mapping)
            rank = (-len(bound), store.predicate_cardinality(pattern.predicate))
            if rank < best_rank:
                best, best_rank, bindings = slot, rank, bound
    rest = tuple(slot for slot in remaining if slot != best)
    pattern = patterns[best]
    excluded = delta if best < seed_slot else None
    for candidate in store.atoms_matching(pattern.predicate, bindings):
        if excluded is not None and candidate in excluded:
            continue
        extended = match_atom(pattern, candidate, mapping)
        if extended is None:
            continue
        if rest:
            yield from _join(store, patterns, rest, extended, delta, seed_slot)
        else:
            yield extended


def homomorphisms_indexed(
    atoms: Sequence[Atom],
    store: "AtomStore",
    base: Optional[Dict[Term, Term]] = None,
) -> Iterator[Substitution]:
    """Enumerate homomorphisms from *atoms* into *store* via the position indexes.

    Drop-in indexed replacement for
    :func:`repro.core.substitutions.homomorphisms`; works against any
    :class:`~repro.storage.atom_store.AtomStore`.
    """
    patterns = tuple(atoms)
    for assignment in _join(
        store, patterns, tuple(range(len(patterns))), dict(base or {}), None, -1
    ):
        yield Substitution(assignment)


def has_homomorphism_indexed(
    atoms: Sequence[Atom],
    store: "AtomStore",
    base: Optional[Dict[Term, Term]] = None,
) -> bool:
    """Return ``True`` when some homomorphism from *atoms* into *store* exists."""
    for _ in homomorphisms_indexed(atoms, store, base):
        return True
    return False


class JoinPlan:
    """Join strategy for matching a TGD body seeded at one body-atom slot.

    A plan is built once per ``(body, slot)`` pair and reused across rounds;
    executing it seeds the slot with a delta atom and resolves the remaining
    body atoms by selectivity-ordered index intersection.
    """

    __slots__ = ("body", "seed_slot", "_others", "_seed_by_position", "partition_positions")

    def __init__(self, body: Sequence[Atom], seed_slot: int) -> None:
        self.body = tuple(body)
        if not 0 <= seed_slot < len(self.body):
            raise ValueError(f"seed slot {seed_slot} out of range for {len(self.body)}-atom body")
        self.seed_slot = seed_slot
        self._others = tuple(i for i in range(len(self.body)) if i != seed_slot)
        # The join-key positions of the seed atom: positions holding a
        # variable that also occurs in another body atom.  The parallel
        # chase hash-partitions seed atoms by the terms at these positions
        # (K-Join-style: seeds sharing a join key land on the same worker);
        # for linear TGDs there is no join, so the whole term tuple is the
        # key (empty tuple = "hash all positions" by convention).
        seed = self.body[seed_slot]
        # Pairwise distinct variables match any atom of the predicate by position.
        self._seed_by_position = not seed.has_repeated_terms() and not any(
            isinstance(term, Constant) for term in seed.terms
        )
        other_variables = {
            term
            for slot in self._others
            for term in self.body[slot].terms
            if not isinstance(term, Constant)
        }
        self.partition_positions = tuple(
            position
            for position, term in enumerate(seed.terms)
            if not isinstance(term, Constant) and term in other_variables
        )

    def __repr__(self) -> str:
        return f"JoinPlan(seed={self.body[self.seed_slot]!r}, body={len(self.body)} atoms)"

    def partition_key(self, atom: Atom) -> Tuple[Term, ...]:
        """The terms of *atom* forming this plan's repartition key.

        This is the per-round exchange metadata: a delta atom seeding this
        plan is shipped to the worker owning the stable hash of exactly
        these terms (all of them for linear plans, the join-key positions
        for multi-way bodies — see ``partition_positions``).
        """
        if not self.partition_positions:
            return atom.terms
        return tuple(atom.terms[position] for position in self.partition_positions)

    def route_hash(self, atom: Atom) -> int:
        """The stable partition hash routing *atom* as a seed of this plan.

        ``route_hash(atom) % n_workers`` is the plan's default owner; the
        shuffle exchange's skew split overrides that mapping for heavy
        hashes (:class:`repro.chase.exchange.RoutingTable`).
        """
        return partition_hash(self.partition_key(atom))

    def matches(
        self,
        store: "AtomStore",
        seed_atom: Atom,
        delta: Optional[AbstractSet[Atom]] = None,
    ) -> Iterator[Dict[Term, Term]]:
        """Yield the body homomorphisms that map the seed slot onto *seed_atom*.

        With *delta* given, slots before the seed slot only match atoms
        outside *delta*, so a homomorphism using several delta atoms is
        reported only by the plan seeded at its first delta slot.
        """
        seed = self.body[self.seed_slot]
        if self._seed_by_position and seed.predicate == seed_atom.predicate:
            mapping = dict(zip(seed.terms, seed_atom.terms))
        else:
            mapping = match_atom(seed, seed_atom, None)
        if mapping is None:
            return
        if self._others:
            yield from _join(store, self.body, self._others, mapping, delta, self.seed_slot)
        else:
            yield mapping


class TriggerSource:
    """Produces the matches of each breadth-first chase round.

    ``initial`` enumerates every trigger on the seed store (round 0);
    ``delta`` enumerates only the triggers created by the atoms added in the
    previous round.  Both yield :data:`Match` pairs.
    """

    def initial(self, store: "AtomStore") -> Iterator[Match]:
        raise NotImplementedError

    def delta(self, store: "AtomStore", new_atoms: Iterable[Atom]) -> Iterator[Match]:
        raise NotImplementedError


class NaiveTriggerSource(TriggerSource):
    """The seed engine's enumeration, kept as the differential-testing reference."""

    def __init__(self, tgds: Sequence[TGD]) -> None:
        self.tgds = tuple(tgds)

    def initial(self, store: "AtomStore") -> Iterator[Match]:
        return self._matches(store, None)

    def delta(self, store: "AtomStore", new_atoms: Iterable[Atom]) -> Iterator[Match]:
        return self._matches(store, new_atoms)

    def _matches(
        self, store: "AtomStore", restrict_to_atoms: Optional[Iterable[Atom]]
    ) -> Iterator[Match]:
        # triggers_on only reads atoms_with_predicate, which every store has.
        instance = cast(Instance, store)
        for trigger in triggers_on(self.tgds, instance, restrict_to_atoms=restrict_to_atoms):
            yield trigger.tgd_index, trigger.homomorphism.as_dict()


class IndexedTriggerSource(TriggerSource):
    """Delta-driven enumeration through :class:`JoinPlan` index joins.

    For every TGD body atom slot whose predicate matches a delta atom, the
    precomputed plan for that slot is executed with the delta atom as seed.
    This gives multi-atom bodies the same "only new triggers" guarantee the
    naive path only had for linear TGDs.
    """

    def __init__(self, tgds: Sequence[TGD]) -> None:
        self.tgds = tuple(tgds)
        self._slots: Dict[Predicate, List[Tuple[int, JoinPlan]]] = {}
        for index, tgd in enumerate(self.tgds):
            for slot, atom in enumerate(tgd.body):
                self._slots.setdefault(atom.predicate, []).append(
                    (index, JoinPlan(tgd.body, slot))
                )

    def initial(self, store: "AtomStore") -> Iterator[Match]:
        for index, tgd in enumerate(self.tgds):
            for mapping in _join(store, tgd.body, tuple(range(len(tgd.body))), {}, None, -1):
                yield index, mapping

    def delta(self, store: "AtomStore", new_atoms: Iterable[Atom]) -> Iterator[Match]:
        delta = new_atoms if isinstance(new_atoms, (set, frozenset)) else set(new_atoms)
        # reprolint: disable=determinism -- trigger enumeration order cannot reach results: engines dedupe by firing key, nulls are content-addressed, and round inserts are sorted; sorting the delta here would tax the hot matching path
        for atom in delta:
            for index, plan in self._slots.get(atom.predicate, ()):
                for mapping in plan.matches(store, atom, delta=delta):
                    yield index, mapping


def make_trigger_source(tgds: Sequence[TGD], strategy: str = "indexed") -> TriggerSource:
    """Build the :class:`TriggerSource` for *strategy* (one of :data:`STRATEGIES`)."""
    if strategy == "indexed":
        return IndexedTriggerSource(tgds)
    if strategy == "naive":
        return NaiveTriggerSource(tgds)
    if strategy == "sql-pushdown":
        raise ValueError(
            "the 'sql-pushdown' strategy applies whole rounds through "
            "compiled SQL statements and does not enumerate triggers; run "
            "it via repro.chase.engine.chase(strategy='sql-pushdown')"
        )
    raise ValueError(f"unknown trigger strategy {strategy!r}; expected one of {STRATEGIES}")
