"""The ``AtomStore`` protocol: the storage interface the chase runs against.

``AtomStore`` names the small set of operations the trigger engine
(:mod:`repro.chase.matching`) and the parallel executor need.  Two backends
implement it — the in-memory :class:`~repro.core.instances.Instance` and
the SQLite store (:class:`~repro.storage.sqlbackend.SqliteAtomStore`,
transient or a persistent file) — and a future backend only has to provide
these eleven methods.  (Partition ownership is not a store method: the
parallel executor filters ``rows_matching`` through
:func:`repro.core.indexing.partition_rows`.)

The chase itself only speaks the **row** half: ``add_rows``,
``rows_matching`` and ``has_row`` trade ``(predicate, term tuple)`` rows,
so no :class:`~repro.core.atoms.Atom` is built between seeding and the
result.  The ``*_atom*`` half is the same store seen through atoms — the
public API edge.  :class:`~repro.storage.database.RelationalDatabase` is not one:
it is the FindShapes substrate of the termination checkers, with its own
catalog/scan/query surface.

The protocol is *structural* (:class:`typing.Protocol`):
``core.Instance`` implements it without importing this module, which keeps
the ``core`` → ``storage`` dependency direction intact.

:class:`InstanceView` is the read-only companion: an instance-shaped
adapter over any store, so consumers that historically demanded an
``Instance`` (reporting, shape discovery, conformance checks) can read a
chase result through the protocol without forcing
:class:`~repro.core.instances.Instance` materialization — the access path
behind ``ChaseResult.view`` and ``chase(..., materialize=False)``.
"""

from __future__ import annotations

from typing import (
    Collection,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Protocol,
    runtime_checkable,
)

from ..core.atoms import Atom
from ..core.indexing import Row
from ..core.predicates import Predicate
from ..core.terms import Constant, Null, Term


@runtime_checkable
class AtomStore(Protocol):
    """A mutable set of ground atoms with indexed positional access.

    Implementations must treat atoms and rows as immutable values and must
    return read-only collections from the query methods (callers never
    mutate them).  ``rows_matching`` is the work-horse: the indexed join
    resolves every candidate lookup through it.
    """

    def add_rows(self, predicate: Predicate, rows: Iterable[Row]) -> int:
        """Add the term tuples *rows* over *predicate*; return how many were new.

        Rows must be ground and as wide as the predicate's arity
        (``ValidationError`` otherwise); the chase inserts each round's rows
        of one predicate in one call, in canonical order.
        """
        ...

    def has_row(self, predicate: Predicate, row: Row) -> bool:
        """Return ``True`` when the row *row* over *predicate* is stored."""
        ...

    def rows_matching(
        self, predicate: Predicate, bindings: Optional[Mapping[int, Term]] = None
    ) -> Collection[Row]:
        """Return the rows over *predicate* matching the positional *bindings*.

        *bindings* maps 0-based argument positions to ground terms; ``None``
        or an empty mapping selects the whole relation.
        """
        ...

    def add_atom(self, atom: Atom) -> bool:
        """Add *atom*; return ``True`` when it was not already present."""
        ...

    def has_atom(self, atom: Atom) -> bool:
        """Return ``True`` when *atom* is in the store."""
        ...

    def iter_atoms(self) -> Iterator[Atom]:
        """Iterate over all atoms (no ordering guarantee)."""
        ...

    def atom_count(self) -> int:
        """Return the number of (distinct) atoms in the store."""
        ...

    def atoms_with_predicate(self, predicate: Predicate) -> Collection[Atom]:
        """Return the atoms over *predicate* (possibly empty)."""
        ...

    def atoms_matching(
        self, predicate: Predicate, bindings: Optional[Mapping[int, Term]] = None
    ) -> Iterable[Atom]:
        """Return the atoms over *predicate* matching the positional *bindings*.

        *bindings* maps 0-based argument positions to ground terms; ``None``
        or an empty mapping selects the whole relation.
        """
        ...

    def predicate_cardinality(self, predicate: Predicate) -> int:
        """Return the number of atoms over *predicate* (used for join ordering)."""
        ...

    def predicates(self) -> Collection[Predicate]:
        """Return the predicates with at least one atom."""
        ...


class InstanceView:
    """A read-only, instance-shaped view over any :class:`AtomStore`.

    Presents the query surface of :class:`~repro.core.instances.Instance`
    (``len``, iteration, membership, ``atoms()``, ``nulls()`` …) while every
    read goes straight through the store protocol — nothing is copied, so a
    view over a disk-resident store stays as small as the store's own page
    cache.  Mutation is refused: the view exists so downstream consumers
    can *read* a chase result without forcing materialization.

    Iteration is sorted (predicate, atom) like ``Instance.__iter__``, so
    fingerprints computed over a view match those computed over the
    materialised instance byte for byte.
    """

    __slots__ = ("_store",)

    def __init__(self, store):
        self._store = store

    @property
    def store(self):
        """The wrapped :class:`AtomStore`."""
        return self._store

    # -------------------------------------------------------------- #
    # AtomStore read surface (plain delegation)

    def has_row(self, predicate: Predicate, row: Row) -> bool:
        return self._store.has_row(predicate, row)

    def rows_matching(
        self, predicate: Predicate, bindings: Optional[Mapping[int, Term]] = None
    ) -> Collection[Row]:
        return self._store.rows_matching(predicate, bindings)

    def has_atom(self, atom: Atom) -> bool:
        return self._store.has_atom(atom)

    def iter_atoms(self) -> Iterator[Atom]:
        return self._store.iter_atoms()

    def atom_count(self) -> int:
        return self._store.atom_count()

    def atoms_with_predicate(self, predicate: Predicate) -> Collection[Atom]:
        return self._store.atoms_with_predicate(predicate)

    def atoms_matching(
        self, predicate: Predicate, bindings: Optional[Mapping[int, Term]] = None
    ) -> Iterable[Atom]:
        return self._store.atoms_matching(predicate, bindings)

    def predicate_cardinality(self, predicate: Predicate) -> int:
        return self._store.predicate_cardinality(predicate)

    def predicates(self) -> Collection[Predicate]:
        return self._store.predicates()

    # -------------------------------------------------------------- #
    # Instance-shaped conveniences

    def __len__(self) -> int:
        return self._store.atom_count()

    def __contains__(self, atom: Atom) -> bool:
        return self._store.has_atom(atom)

    def __iter__(self) -> Iterator[Atom]:
        for predicate in sorted(self._store.predicates()):
            yield from sorted(self._store.atoms_with_predicate(predicate))

    def __repr__(self):
        return f"InstanceView({self._store!r})"

    def atoms(self) -> FrozenSet[Atom]:
        """Return all atoms as a frozen set (one full scan)."""
        return frozenset(self._store.iter_atoms())

    def constants(self) -> FrozenSet[Constant]:
        """Return the constants occurring in the store (streamed scan)."""
        return frozenset(
            term
            for atom in self._store.iter_atoms()
            for term in atom.terms
            if not isinstance(term, Null)
        )

    def nulls(self) -> FrozenSet[Null]:
        """Return the labeled nulls occurring in the store (streamed scan)."""
        return frozenset(
            term
            for atom in self._store.iter_atoms()
            for term in atom.terms
            if isinstance(term, Null)
        )

    def domain(self) -> FrozenSet[Term]:
        """Return the constants and nulls occurring in the store."""
        return frozenset(
            term for atom in self._store.iter_atoms() for term in atom.terms
        )

    # -------------------------------------------------------------- #
    # Mutation is refused

    def add_atom(self, atom: Atom) -> bool:
        raise TypeError("InstanceView is read-only; mutate the underlying store")

    def add_rows(self, predicate: Predicate, rows: Iterable[Row]) -> int:
        raise TypeError("InstanceView is read-only; mutate the underlying store")

    add = add_atom
