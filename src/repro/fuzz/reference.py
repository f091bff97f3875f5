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
product's engine for its variant and swaps in :class:`NaiveTriggerSource`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence

from ..chase.engine import ObliviousChase, RestrictedChase, SemiObliviousChase
from ..chase.matching import Match
from ..chase.result import ChaseLimits, ChaseResult
from ..chase.triggers import FiringPlan
from ..core.atoms import Atom, atom_sort_key, match_atom
from ..core.instances import Database
from ..core.terms import Term
from ..core.tgds import TGD, TGDSet
from ..storage.atom_store import AtomStore


def homomorphisms(
    atoms: Sequence[Atom],
    store: AtomStore,
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
    store: AtomStore,
    base: Optional[Mapping[Term, Term]] = None,
) -> bool:
    """Return ``True`` when some homomorphism from *atoms* into *store* extends *base*."""
    return next(homomorphisms(atoms, store, base), None) is not None


def triggers_on(
    tgds: Sequence[TGD],
    store: AtomStore,
    restrict_to_atoms: Optional[Iterable[Atom]] = None,
) -> Iterator[Match]:
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
    """The reference round enumeration: :func:`triggers_on` per round."""

    def __init__(self, tgds: Sequence[TGD]) -> None:
        self.tgds = tuple(tgds)

    def initial(self, store: AtomStore) -> Iterator[Match]:
        return triggers_on(self.tgds, store)

    def delta(self, store: AtomStore, new_atoms: Iterable[Atom]) -> Iterator[Match]:
        return triggers_on(self.tgds, store, restrict_to_atoms=new_atoms)


class ReferenceObliviousChase(ObliviousChase):
    trigger_source = NaiveTriggerSource


class ReferenceSemiObliviousChase(SemiObliviousChase):
    trigger_source = NaiveTriggerSource


class ReferenceRestrictedChase(RestrictedChase):
    trigger_source = NaiveTriggerSource

    def _should_fire(
        self, plan: FiringPlan, mapping: Mapping[Term, Term], store: AtomStore
    ) -> bool:
        base = {variable: mapping[variable] for variable in plan.variables}
        return not has_homomorphism(plan.tgd.head, store, base=base)


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
