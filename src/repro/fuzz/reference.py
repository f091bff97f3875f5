"""The naive reference chase every engine is held to.

This is the seed engine's trigger enumeration, kept out of the product so
that the oracles compare the product against code that shares none of its
matching: a dict-based backtracking :func:`homomorphisms` search over whole
per-predicate buckets, and :func:`triggers_on`, which enumerates ``T(Σ, I)``
by filtering that search instead of seeding index joins with delta atoms.
The restricted variant checks head satisfaction through the same naive
search, so the reference's firing policy is independent of
:func:`repro.chase.matching.has_homomorphism` too.

What the reference does share with the product is the definition of a
chase round — firing keys, null naming, and the breadth-first driver
(:func:`repro.chase.rounds.run_rounds`) — so its result is byte-identical
to every engine's, null names included.  The one seam is
:attr:`ChaseEngine.trigger_source`: each reference engine subclasses the
product's engine for its variant and swaps in :class:`NaiveTriggerSource`,
which searches over atoms and dicts and converts each homomorphism to the
rule's slot tuple (:func:`~repro.chase.matching.variable_slots`) only at
that seam.  Its searches read a :class:`_Snapshot` — the store's atoms per
predicate, decoded once per round — instead of the store.
"""

from __future__ import annotations

from typing import (
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from ..chase.engine import ObliviousChase, RestrictedChase, SemiObliviousChase
from ..chase.matching import Match, variable_slots
from ..chase.result import ChaseLimits, ChaseResult
from ..chase.rounds import Delta
from ..chase.triggers import FiringKey, FiringPlan
from ..core.atoms import Atom, atom_sort_key, match_atom
from ..core.instances import Database
from ..core.predicates import Predicate
from ..core.terms import Term
from ..core.tgds import TGD, TGDSet
from ..storage.atom_store import AtomStore

#: A match as the reference finds it: ``(rule index, body homomorphism as a dict)``.
DictMatch = Tuple[int, Dict[Term, Term]]


class AtomSource(Protocol):
    """What the reference searches read: a store, or a :class:`_Snapshot` of one."""

    def atoms_with_predicate(self, predicate: Predicate) -> Collection[Atom]:
        ...


class _Snapshot:
    """A store's atoms per predicate, decoded on first read and kept while
    the store does not grow — within one round it does not."""

    def __init__(self, store: AtomStore) -> None:
        self.store = store
        self.size = store.atom_count()
        self._atoms: Dict[Predicate, List[Atom]] = {}

    def atoms_with_predicate(self, predicate: Predicate) -> List[Atom]:
        atoms = self._atoms.get(predicate)
        if atoms is None:
            atoms = self._atoms[predicate] = list(self.store.atoms_with_predicate(predicate))
        return atoms


def homomorphisms(
    atoms: Sequence[Atom],
    store: AtomSource,
    base: Optional[Mapping[Term, Term]] = None,
) -> Iterator[Dict[Term, Term]]:
    """Enumerate the homomorphisms from *atoms* into *store* that extend *base*.

    The search proceeds atom by atom in the given order, scanning the whole
    predicate bucket of each; partial assignments prune inconsistent
    branches early.
    """
    patterns = tuple(atoms)

    def search(index: int, mapping: Dict[Term, Term]) -> Iterator[Dict[Term, Term]]:
        if index == len(patterns):
            yield mapping
            return
        pattern = patterns[index]
        for candidate in store.atoms_with_predicate(pattern.predicate):
            extended = match_atom(pattern, candidate, mapping)
            if extended is not None:
                yield from search(index + 1, extended)

    return search(0, dict(base or {}))


def has_homomorphism(
    atoms: Sequence[Atom],
    store: AtomSource,
    base: Optional[Mapping[Term, Term]] = None,
) -> bool:
    """Return ``True`` when some homomorphism from *atoms* into *store* extends *base*."""
    return next(homomorphisms(atoms, store, base), None) is not None


def triggers_on(
    tgds: Sequence[TGD],
    store: AtomSource,
    restrict_to_atoms: Optional[Iterable[Atom]] = None,
) -> Iterator[DictMatch]:
    """Enumerate ``T(Σ, I)`` as ``(rule index, body homomorphism)`` pairs.

    When *restrict_to_atoms* is given, only homomorphisms that map some body
    atom onto one of those atoms are produced — the triggers a round's new
    atoms created.  Linear rules take a fast path over the new atoms alone;
    every other rule enumerates all its homomorphisms and keeps those whose
    image touches a new atom.
    """
    restricted = None if restrict_to_atoms is None else set(restrict_to_atoms)
    new_atoms = sorted(restricted or (), key=atom_sort_key)
    for index, tgd in enumerate(tgds):
        if restricted is not None and len(tgd.body) == 1:
            body_atom = tgd.body[0]
            for candidate in new_atoms:
                assignment = match_atom(body_atom, candidate, None)
                if assignment is not None:
                    yield index, assignment
            continue
        for mapping in homomorphisms(tgd.body, store):
            if restricted is None or any(
                atom.substitute(mapping) in restricted for atom in tgd.body
            ):
                yield index, mapping


class NaiveTriggerSource:
    """The reference round enumeration: :func:`triggers_on` per round, over a
    :class:`_Snapshot` of the store."""

    def __init__(self, tgds: Sequence[TGD]) -> None:
        self.tgds = tuple(tgds)
        self._slots = [tuple(variable_slots(tgd.body)) for tgd in self.tgds]

    def _matches(self, triggers: Iterator[DictMatch]) -> Iterator[Match]:
        for index, mapping in triggers:
            yield index, tuple(mapping[variable] for variable in self._slots[index])

    def initial(self, store: AtomStore) -> Iterator[Match]:
        return self._matches(triggers_on(self.tgds, _Snapshot(store)))

    def delta(self, store: AtomStore, delta: Delta) -> Iterator[Match]:
        new_atoms = [Atom(predicate, row) for predicate, rows in delta.items() for row in rows]
        return self._matches(triggers_on(self.tgds, _Snapshot(store), new_atoms))


class ReferenceObliviousChase(ObliviousChase):
    trigger_source = NaiveTriggerSource


class ReferenceSemiObliviousChase(SemiObliviousChase):
    trigger_source = NaiveTriggerSource


class ReferenceRestrictedChase(RestrictedChase):
    trigger_source = NaiveTriggerSource
    _snapshot: Optional[_Snapshot] = None

    def _should_fire(self, plan: FiringPlan, key: FiringKey, store: AtomStore) -> bool:
        snapshot = self._snapshot
        if snapshot is None or snapshot.store is not store or snapshot.size != store.atom_count():
            snapshot = self._snapshot = _Snapshot(store)
        base = dict(zip(plan.variables, key[1]))
        return not has_homomorphism(plan.tgd.head, snapshot, base=base)


#: Chase variant -> reference engine class.
REFERENCE_ENGINES = {
    engine.variant: engine
    for engine in (ReferenceObliviousChase, ReferenceSemiObliviousChase, ReferenceRestrictedChase)
}


def reference_chase(
    database: Database,
    tgds: TGDSet,
    variant: str = "semi-oblivious",
    limits: Optional[ChaseLimits] = None,
) -> ChaseResult:
    """Chase *database* with *tgds* in memory through the reference enumeration."""
    try:
        engine = REFERENCE_ENGINES[variant]
    except KeyError:
        raise ValueError(
            f"unknown chase variant {variant!r}; expected one of {sorted(REFERENCE_ENGINES)}"
        ) from None
    return engine(limits=limits).run(database, tgds)
