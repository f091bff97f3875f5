"""Indexed, delta-driven trigger matching (the semi-naive join subsystem).

Every homomorphism search of the chase runs through :func:`_join` — round
enumeration, the parallel workers' seeded plans, the restricted chase's
head-satisfaction check and :func:`repro.chase.engine.satisfies`.  It
works on **value rows**: a conjunction of atoms is compiled once into a
:class:`Pattern` that numbers its variables, a homomorphism is the tuple of
their images (a *slot tuple*), and candidates are the stores' rows — term
tuples — so no :class:`~repro.core.atoms.Atom` and no per-candidate dict is
built.  It applies the two classic database techniques:

* **index intersection** — candidate rows for a body atom are resolved
  through the store's ``(predicate, position, term)`` postings
  (:meth:`AtomStore.rows_matching`) instead of bucket scans, and the join
  order is chosen greedily by selectivity (most bound positions first,
  smallest relation as tie-break);
* **semi-naive (delta-driven) evaluation** — at round ``i`` every new
  trigger must use at least one row added in round ``i-1``, so the engine
  *seeds* each compatible body-atom slot with each delta row and joins
  outward.  Homomorphisms that touch several delta rows are produced
  exactly once thanks to the standard ordering trick: when slot ``j`` is
  the seed, slots before ``j`` may only match *old* (pre-delta) rows.

The search works against any :class:`repro.storage.atom_store.AtomStore`
(:class:`~repro.core.instances.Instance` or
:class:`~repro.storage.sqlbackend.SqliteAtomStore`), which is what lets the
chase run unchanged over either backend.  The seed engine's bucket-scan
enumeration survives only as the fuzz oracle's reference
(:mod:`repro.fuzz.reference`).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..core.atoms import Atom
from ..core.indexing import Row
from ..core.predicates import Predicate
from ..core.terms import Term, Variable
from ..core.tgds import TGD
from .rounds import Delta

if TYPE_CHECKING:  # pragma: no cover - typing only; keeps storage out of module load
    from ..storage.atom_store import AtomStore

#: One enumerated trigger as the firing loops consume it: ``(rule index, body
#: homomorphism)``, the homomorphism as the images of the body's variable
#: slots (:func:`variable_slots`).
Match = Tuple[int, Row]

#: Chase strategies accepted by ``chase()``, ``parallel_chase()`` and the
#: CLI.  ``"indexed"`` runs the engines over :class:`IndexedTriggerSource`;
#: ``"sql-pushdown"`` applies *whole rounds* as set-based SQL batches inside
#: the sqlite backend (see :mod:`repro.storage.sqlbackend.pushdown`).
STRATEGIES = ("indexed", "sql-pushdown")

#: What an atom does at one point of a join: ``(predicate, lookup, assign,
#: check, bound after)``.  *lookup* holds the ``(position, slot)`` pairs bound
#: before the atom (the store binds them), *assign* the first occurrences of
#: unbound slots (read off the candidate), *check* the repeats of a slot the
#: atom itself assigns; *bound after* is the slot mask once it matched.
_Step = Tuple[Predicate, Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...],
              Tuple[Tuple[int, int], ...], int]


def variable_slots(atoms: Iterable[Atom], leading: Iterable[Term] = ()) -> Dict[Term, int]:
    """Number the terms of *atoms*: *leading* first, then first occurrence.

    A TGD body numbered this way is the layout of every slot tuple the
    matching yields for it (``leading`` empty); :class:`FiringPlan
    <repro.chase.triggers.FiringPlan>` reads its witness out of that layout.
    """
    slots: Dict[Term, int] = {}
    for term in leading:
        slots.setdefault(term, len(slots))
    for atom in atoms:
        for term in atom.terms:
            slots.setdefault(term, len(slots))
    return slots


class Pattern:
    """A conjunction of atoms compiled to integer variable slots.

    Slot ``i`` holds the image of ``terms[i]``: the *leading* terms first,
    then every other term in first-occurrence order; a constant's slot is
    bound to the constant itself.  What each atom looks up, assigns and
    re-checks depends only on which slots are bound when the join reaches
    it, so that :data:`_Step` is compiled once per (bound mask, atom) and
    cached.
    """

    __slots__ = ("atoms", "terms", "positions", "fixed_mask", "_fixed", "_steps")

    def __init__(self, atoms: Iterable[Atom], leading: Iterable[Term] = ()) -> None:
        self.atoms = tuple(atoms)
        slots = variable_slots(self.atoms, leading)
        self.terms = tuple(slots)
        #: Per atom, the slot of each argument position.
        self.positions = tuple(tuple(slots[term] for term in atom.terms) for atom in self.atoms)
        self._fixed = tuple(
            (slot, term) for term, slot in slots.items() if not isinstance(term, Variable)
        )
        self.fixed_mask = sum(1 << slot for slot, _ in self._fixed)
        self._steps: Dict[Tuple[int, int], _Step] = {}

    def start(self, leading: Sequence[Term] = ()) -> List[Optional[Term]]:
        """A slot list with the *leading* images and the constants bound."""
        values: List[Optional[Term]] = [None] * len(self.terms)
        values[: len(leading)] = leading
        for slot, term in self._fixed:
            values[slot] = term
        return values

    def step(self, bound: int, atom: int) -> _Step:
        """The :data:`_Step` of atom *atom* when the slots in *bound* are bound."""
        step = self._steps.get((bound, atom))
        if step is None:
            lookup: List[Tuple[int, int]] = []
            assign: List[Tuple[int, int]] = []
            check: List[Tuple[int, int]] = []
            seen = bound
            for position, slot in enumerate(self.positions[atom]):
                bit = 1 << slot
                if bound & bit:
                    lookup.append((position, slot))
                elif seen & bit:
                    check.append((position, slot))
                else:
                    assign.append((position, slot))
                    seen |= bit
            step = self._steps[(bound, atom)] = (
                self.atoms[atom].predicate, tuple(lookup), tuple(assign), tuple(check), seen,
            )
        return step

    def matches(self, store: "AtomStore") -> Iterator[Row]:
        """Every homomorphism of the atoms into *store*, as slot tuples."""
        return _join(
            store, self, tuple(range(len(self.atoms))), self.start(), self.fixed_mask, None, -1
        )

    def exists(self, store: "AtomStore", leading: Sequence[Term] = ()) -> bool:
        """Whether some homomorphism into *store* extends the *leading* images."""
        bound = self.fixed_mask | ((1 << len(leading)) - 1)
        values = self.start(leading)
        for _ in _join(store, self, tuple(range(len(self.atoms))), values, bound, None, -1):
            return True
        return False


def _join(
    store: "AtomStore",
    pattern: Pattern,
    remaining: Tuple[int, ...],
    values: List[Optional[Term]],
    bound: int,
    exclusion: Optional[Mapping[Predicate, AbstractSet[Row]]],
    seed_slot: int,
) -> Iterator[Row]:
    """Recursively extend the slot list *values* over the *remaining* atoms.

    The next atom is chosen greedily: most bound positions first, smallest
    relation as tie-break.  Atoms before *seed_slot* reject the rows of
    *exclusion* (the semi-naive dedup constraint).  *values* is extended in
    place; each complete homomorphism is yielded as a tuple.
    """
    if not remaining:
        yield tuple(values)  # type: ignore[misc]
        return
    if len(remaining) == 1:
        atom = remaining[0]
        step = pattern.step(bound, atom)
        rest: Tuple[int, ...] = ()
    else:
        atom = -1
        best_rank: Optional[Tuple[int, int]] = None
        for candidate in remaining:
            candidate_step = pattern.step(bound, candidate)
            rank = (-len(candidate_step[1]), store.predicate_cardinality(candidate_step[0]))
            if best_rank is None or rank < best_rank:
                atom, step, best_rank = candidate, candidate_step, rank
        rest = tuple(slot for slot in remaining if slot != atom)
    predicate, lookup, assign, check, now_bound = step
    bindings = {position: values[slot] for position, slot in lookup} if lookup else None
    excluded = exclusion.get(predicate) if exclusion and atom < seed_slot else None
    for row in store.rows_matching(predicate, bindings):  # type: ignore[arg-type]
        if excluded is not None and row in excluded:
            continue
        for position, slot in assign:
            values[slot] = row[position]
        if check and any(row[position] != values[slot] for position, slot in check):
            continue
        if rest:
            yield from _join(store, pattern, rest, values, now_bound, exclusion, seed_slot)
        else:
            yield tuple(values)  # type: ignore[misc]


def has_homomorphism(
    atoms: Sequence[Atom],
    store: "AtomStore",
    base: Optional[Mapping[Term, Term]] = None,
) -> bool:
    """Return ``True`` when some homomorphism from *atoms* into *store* extends *base*."""
    base = base or {}
    return Pattern(atoms, base).exists(store, tuple(base.values()))


class JoinPlan:
    """Join strategy for matching a TGD body seeded at one body-atom slot.

    A plan is built once per ``(body, slot)`` pair and reused across rounds;
    executing it binds the slot to a delta row and resolves the remaining
    body atoms by selectivity-ordered index intersection.  *body* is the
    atoms or their :class:`Pattern`, which the plans of one rule share.
    """

    __slots__ = (
        "pattern", "body", "seed_slot", "guarded", "partition_positions", "_others", "_seed",
        "_prefix",
    )

    def __init__(self, body: Union[Sequence[Atom], Pattern], seed_slot: int) -> None:
        self.pattern = body if isinstance(body, Pattern) else Pattern(body)
        self.body = self.pattern.atoms
        if not 0 <= seed_slot < len(self.body):
            raise ValueError(f"seed slot {seed_slot} out of range for {len(self.body)}-atom body")
        self.seed_slot = seed_slot
        self._others = tuple(i for i in range(len(self.body)) if i != seed_slot)
        #: The predicates of the slots before the seed: the ones a delta
        #: round's exclusion constrains.
        self.guarded = frozenset(atom.predicate for atom in self.body[:seed_slot])
        self._seed = self.pattern.step(self.pattern.fixed_mask, seed_slot)
        # Pairwise distinct variables numbered first: the seed row is the
        # slot list's prefix as it stands.
        positions = self.pattern.positions[seed_slot]
        self._prefix = not self.pattern.fixed_mask and positions == tuple(range(len(positions)))
        # The join-key positions of the seed atom: positions holding a
        # variable that also occurs in another body atom.  The parallel
        # chase hash-partitions seed rows by the terms at these positions
        # (K-Join-style: seeds sharing a join key land on the same worker);
        # for linear TGDs there is no join, so the whole term tuple is the
        # key (empty tuple = "hash all positions" by convention).
        other_slots = {slot for i in self._others for slot in self.pattern.positions[i]}
        self.partition_positions = tuple(
            position
            for position, slot in enumerate(positions)
            if slot in other_slots and not (self.pattern.fixed_mask >> slot) & 1
        )

    def __repr__(self) -> str:
        return f"JoinPlan(seed={self.body[self.seed_slot]!r}, body={len(self.body)} atoms)"

    def matches(
        self,
        store: "AtomStore",
        seed_row: Row,
        delta: Optional[Mapping[Predicate, AbstractSet[Row]]] = None,
    ) -> Iterator[Row]:
        """Yield the body homomorphisms that map the seed slot onto *seed_row*.

        With *delta* (predicate -> rows) given, slots before the seed slot
        only match rows outside it, so a homomorphism using several delta
        rows is reported only by the plan seeded at its first delta slot.
        """
        pattern = self.pattern
        if self._prefix:
            if not self._others:  # a linear body: the seed row is the whole match
                yield seed_row
                return
            values: List[Optional[Term]] = list(seed_row)
            values.extend([None] * (len(pattern.terms) - len(seed_row)))
        else:
            _, lookup, assign, check, _ = self._seed
            values = pattern.start()
            if any(seed_row[position] != values[slot] for position, slot in lookup):
                return
            for position, slot in assign:
                values[slot] = seed_row[position]
            if any(seed_row[position] != values[slot] for position, slot in check):
                return
        yield from _join(store, pattern, self._others, values, self._seed[4], delta, self.seed_slot)


class IndexedTriggerSource:
    """Delta-driven enumeration through :class:`JoinPlan` index joins.

    For every TGD body atom slot whose predicate has delta rows, the
    precomputed plan for that slot is executed with each of them as seed,
    so a round enumerates only the triggers its delta created.  ``initial``
    enumerates every trigger on the seed store (round 0); both yield
    :data:`Match` pairs.
    """

    def __init__(self, tgds: Sequence[TGD]) -> None:
        self.tgds = tuple(tgds)
        self._patterns = [Pattern(tgd.body) for tgd in self.tgds]
        self._slots: Dict[Predicate, List[Tuple[int, JoinPlan]]] = {}
        for index, (tgd, pattern) in enumerate(zip(self.tgds, self._patterns)):
            for slot, atom in enumerate(tgd.body):
                self._slots.setdefault(atom.predicate, []).append(
                    (index, JoinPlan(pattern, slot))
                )

    def initial(self, store: "AtomStore") -> Iterator[Match]:
        for index, pattern in enumerate(self._patterns):
            for values in pattern.matches(store):
                yield index, values

    def delta(self, store: "AtomStore", delta: Delta) -> Iterator[Match]:
        """The matches of the round whose new rows are *delta*, walked in the
        driver's order (predicate runs, each sorted)."""
        exclusion: Dict[Predicate, Set[Row]] = {}
        for predicate in delta:
            for _, plan in self._slots.get(predicate, ()):
                for guarded in plan.guarded:
                    if guarded in delta and guarded not in exclusion:
                        exclusion[guarded] = set(delta[guarded])
        for predicate, rows in delta.items():
            for index, plan in self._slots.get(predicate, ()):
                for row in rows:
                    for values in plan.matches(store, row, exclusion):
                        yield index, values


def make_trigger_source(tgds: Sequence[TGD]) -> IndexedTriggerSource:
    """Build the trigger source the chase engines enumerate *tgds* with."""
    return IndexedTriggerSource(tgds)
