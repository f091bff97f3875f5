"""Indexed, delta-driven trigger matching (the semi-naive join subsystem).

Every homomorphism search of the chase runs through :func:`_join` — round
enumeration, the parallel workers' seeded plans, the restricted chase's
head-satisfaction check and :func:`repro.chase.engine.satisfies`.  It
works on **value rows**: a :class:`Pattern` reads a rule body's slot
tuples off its :class:`~repro.core.rules.CompiledRule`, a homomorphism is
the tuple of the slots' images (a *slot tuple*), and candidates are the
stores' rows — term tuples — so no :class:`~repro.core.atoms.Atom` and no
per-candidate dict is built.  It applies the two classic database techniques:

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
from ..core.rules import CompiledAtom, CompiledRule, number_atoms
from ..core.terms import Term, is_ground
from .rounds import Delta

if TYPE_CHECKING:  # pragma: no cover - typing only; keeps storage out of module load
    from ..core.tgds import TGD
    from ..storage.atom_store import AtomStore

#: One enumerated trigger as the firing loops consume it: ``(rule index, body
#: homomorphism)``, the homomorphism as the images of the body's variable
#: slots (:attr:`CompiledRule.body <repro.core.rules.CompiledRule.body>`).
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


class Pattern:
    """A conjunction of compiled atoms over *width* integer variable slots.

    A rule body's pattern is :meth:`of` the rule.  What each atom looks up,
    assigns and re-checks depends only on which slots are bound when the
    join reaches it, so that :data:`_Step` is compiled once per (bound mask,
    atom) and cached.
    """

    __slots__ = ("atoms", "width", "_steps")

    def __init__(self, atoms: Sequence[CompiledAtom], width: int) -> None:
        self.atoms = tuple(atoms)
        self.width = width
        self._steps: Dict[Tuple[int, int], _Step] = {}

    @classmethod
    def of(cls, rule: CompiledRule) -> "Pattern":
        """The pattern of *rule*'s body: slot ``i`` holds the image of the
        ``i``-th body variable."""
        return cls(rule.body, len(rule.names))

    def step(self, bound: int, atom: int) -> _Step:
        """The :data:`_Step` of atom *atom* when the slots in *bound* are bound."""
        step = self._steps.get((bound, atom))
        if step is None:
            lookup: List[Tuple[int, int]] = []
            assign: List[Tuple[int, int]] = []
            check: List[Tuple[int, int]] = []
            seen = bound
            predicate, slots = self.atoms[atom]
            for position, slot in enumerate(slots):
                bit = 1 << slot
                if bound & bit:
                    lookup.append((position, slot))
                elif seen & bit:
                    check.append((position, slot))
                else:
                    assign.append((position, slot))
                    seen |= bit
            step = self._steps[(bound, atom)] = (
                predicate, tuple(lookup), tuple(assign), tuple(check), seen,
            )
        return step

    def matches(self, store: "AtomStore") -> Iterator[Row]:
        """Every homomorphism of the atoms into *store*, as slot tuples."""
        values: List[Optional[Term]] = [None] * self.width
        return _join(store, self, tuple(range(len(self.atoms))), values, 0, None, -1)

    def exists(self, store: "AtomStore", fixed: Iterable[Tuple[int, Term]] = ()) -> bool:
        """Whether some homomorphism into *store* maps each ``(slot, image)``
        of *fixed* to its image."""
        values: List[Optional[Term]] = [None] * self.width
        bound = 0
        for slot, image in fixed:
            values[slot] = image
            bound |= 1 << slot
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
    numbers: Dict[Term, int] = {}
    layout = number_atoms([(atom.predicate, atom.terms) for atom in atoms], numbers)
    # A homomorphism is the identity on constants and nulls.
    fixed = [
        (slot, base.get(term, term))
        for term, slot in numbers.items()
        if term in base or is_ground(term)
    ]
    return Pattern(layout, len(numbers)).exists(store, fixed)


class JoinPlan:
    """Join strategy for matching a TGD body seeded at one body-atom slot.

    A plan is built once per ``(body, slot)`` pair and reused across rounds;
    executing it binds the slot to a delta row and resolves the remaining
    body atoms by selectivity-ordered index intersection.  *body* is the
    compiled rule or its body's :class:`Pattern`, which the plans of one
    rule share.
    """

    __slots__ = (
        "pattern", "body", "seed_slot", "guarded", "partition_positions", "_others", "_seed",
        "_prefix",
    )

    def __init__(self, body: Union[CompiledRule, Pattern], seed_slot: int) -> None:
        self.pattern = body if isinstance(body, Pattern) else Pattern.of(body)
        self.body = self.pattern.atoms
        if not 0 <= seed_slot < len(self.body):
            raise ValueError(f"seed slot {seed_slot} out of range for {len(self.body)}-atom body")
        self.seed_slot = seed_slot
        self._others = tuple(i for i in range(len(self.body)) if i != seed_slot)
        #: The predicates of the slots before the seed: the ones a delta
        #: round's exclusion constrains.
        self.guarded = frozenset(predicate for predicate, _ in self.body[:seed_slot])
        self._seed = self.pattern.step(0, seed_slot)
        # Pairwise distinct variables numbered first: the seed row is the
        # slot list's prefix as it stands.
        positions = self.body[seed_slot][1]
        self._prefix = positions == tuple(range(len(positions)))
        # The join-key positions of the seed atom: positions holding a
        # variable that also occurs in another body atom.  The parallel
        # chase hash-partitions seed rows by the terms at these positions
        # (K-Join-style: seeds sharing a join key land on the same worker);
        # for linear TGDs there is no join, so the whole term tuple is the
        # key (empty tuple = "hash all positions" by convention).
        other_slots = {slot for i in self._others for slot in self.body[i][1]}
        self.partition_positions = tuple(
            position for position, slot in enumerate(positions) if slot in other_slots
        )

    def __repr__(self) -> str:
        seed = self.body[self.seed_slot][0].name
        return f"JoinPlan(seed={seed}, body={len(self.body)} atoms)"

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
            values.extend([None] * (pattern.width - len(seed_row)))
        else:
            _, _, assign, check, _ = self._seed
            values = [None] * pattern.width
            for position, slot in assign:
                values[slot] = seed_row[position]
            if any(seed_row[position] != values[slot] for position, slot in check):
                return
        yield from _join(store, pattern, self._others, values, self._seed[4], delta, self.seed_slot)


class IndexedTriggerSource:
    """Delta-driven enumeration through :class:`JoinPlan` index joins.

    Built from the compiled rules (a :class:`~repro.core.tgds.TGDSet`'s
    ``rules``), not from :class:`~repro.core.tgds.TGD` views.  For every
    body atom slot whose predicate has delta rows, the precomputed plan for
    that slot is executed with each of them as seed, so a round enumerates
    only the triggers its delta created.  ``initial`` enumerates every
    trigger on the seed store (round 0); both yield :data:`Match` pairs.
    """

    def __init__(self, rules: Sequence[CompiledRule]) -> None:
        self._patterns = [Pattern.of(rule) for rule in rules]
        self._slots: Dict[Predicate, List[Tuple[int, JoinPlan]]] = {}
        for index, pattern in enumerate(self._patterns):
            for slot, (predicate, _) in enumerate(pattern.atoms):
                self._slots.setdefault(predicate, []).append((index, JoinPlan(pattern, slot)))

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


def make_trigger_source(tgds: Iterable["TGD"]) -> IndexedTriggerSource:
    """Build the trigger source the chase engines enumerate *tgds* with."""
    return IndexedTriggerSource([tgd.rule for tgd in tgds])
