"""The ``AtomStore`` protocol: the storage interface the chase runs against.

``AtomStore`` names the small set of operations the trigger engine
(:mod:`repro.chase.matching`) and the parallel executor need.  Two backends
implement it — the in-memory :class:`~repro.core.instances.Instance` and
the SQLite store (:class:`~repro.storage.sqlbackend.SqliteAtomStore`,
transient or a persistent file) — and a future backend only has to provide
these seven members.  (Partition ownership is not a store method: the
parallel executor filters ``rows_matching`` through
:func:`repro.core.indexing.partition_rows`.)

The protocol is **rows**: ``add_rows``, ``has_row`` and ``rows_matching``
trade ``(predicate, term tuple)`` rows, so no
:class:`~repro.core.atoms.Atom` is built between seeding and the result;
``predicate_cardinality``, ``predicates`` and ``atom_count`` are the
catalog and counts, and ``iter_atoms`` is the one whole-store scan.
:class:`~repro.storage.database.RelationalDatabase` is not a store: it is
the FindShapes substrate of the termination checkers, with its own
catalog/scan/query surface.

The protocol is *structural* (:class:`typing.Protocol`):
``core.Instance`` implements it without importing this module, which keeps
the ``core`` → ``storage`` dependency direction intact.

:class:`InstanceView` is the atom adapter over any store: the read API of
an ``Instance`` written once over the row protocol, so consumers that
historically demanded an ``Instance`` (reporting, shape discovery,
conformance checks) can read a chase result without forcing
materialization — the access path behind ``ChaseResult.view`` and
``chase(..., materialize=False)`` — and :meth:`InstanceView.to_instance`
is the one decoder behind ``ChaseResult.instance``.
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

from ..core.atoms import Atom, row_sort_key
from ..core.indexing import Row
from ..core.instances import Instance, TermScan
from ..core.predicates import Predicate
from ..core.terms import Term


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
        """Return ``True`` when the row *row* over *predicate* is stored
        (``False``, never an error, for a row of the wrong width)."""
        ...

    def rows_matching(
        self, predicate: Predicate, bindings: Optional[Mapping[int, Term]] = None
    ) -> Collection[Row]:
        """Return the rows over *predicate* matching the positional *bindings*.

        *bindings* maps 0-based argument positions to ground terms; ``None``
        or an empty mapping selects the whole relation.
        """
        ...

    def iter_atoms(self) -> Iterator[Atom]:
        """Iterate over all rows as atoms (no ordering guarantee)."""
        ...

    def atom_count(self) -> int:
        """Return the number of (distinct) atoms in the store."""
        ...

    def predicate_cardinality(self, predicate: Predicate) -> int:
        """Return the number of atoms over *predicate* (used for join ordering)."""
        ...

    def predicates(self) -> Collection[Predicate]:
        """Return the predicates with at least one atom."""
        ...


class InstanceView(TermScan):
    """A read-only, instance-shaped view over any :class:`AtomStore`.

    Presents the read API of :class:`~repro.core.instances.Instance`
    (``len``, iteration, membership, ``atoms()``, ``atoms_with_predicate``,
    ``nulls()`` …) while every read goes straight through the store's row
    protocol — nothing is copied, so a view over a disk-resident store stays
    as small as the store's own page cache.  Backends provide rows; the
    view writes the atom reads once for all of them.  Mutation is refused:
    the view exists so downstream consumers can *read* a chase result
    without forcing materialization, and :meth:`to_instance` is the one
    decoder that does materialize.

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

    def iter_atoms(self) -> Iterator[Atom]:
        return self._store.iter_atoms()

    def atom_count(self) -> int:
        return self._store.atom_count()

    def predicate_cardinality(self, predicate: Predicate) -> int:
        return self._store.predicate_cardinality(predicate)

    def predicates(self) -> Collection[Predicate]:
        return self._store.predicates()

    # -------------------------------------------------------------- #
    # Instance-shaped reads, written once over rows

    def __len__(self) -> int:
        return self._store.atom_count()

    def __contains__(self, atom: Atom) -> bool:
        return self._store.has_row(atom.predicate, atom.terms)

    def __iter__(self) -> Iterator[Atom]:
        for predicate in sorted(self._store.predicates()):
            for row in sorted(self._store.rows_matching(predicate), key=row_sort_key):
                yield Atom(predicate, row)

    def __repr__(self):
        return f"InstanceView({self._store!r})"

    def atoms_with_predicate(self, predicate: Predicate) -> FrozenSet[Atom]:
        """Return the atoms over *predicate* (possibly empty)."""
        return frozenset(Atom(predicate, row) for row in self._store.rows_matching(predicate))

    def atoms(self) -> FrozenSet[Atom]:
        """Return all atoms as a frozen set (one full scan)."""
        return frozenset(self._store.iter_atoms())

    def to_instance(self) -> Instance:
        """Materialise the store (constants *and* nulls) as an :class:`Instance`,
        one ``add_rows`` batch per predicate in sorted order."""
        instance = Instance()
        for predicate in sorted(self._store.predicates()):
            instance.add_rows(predicate, self._store.rows_matching(predicate))
        return instance

    # -------------------------------------------------------------- #
    # Mutation is refused

    def add_rows(self, predicate: Predicate, rows: Iterable[Row]) -> int:
        raise TypeError("InstanceView is read-only; mutate the underlying store")

    def add(self, atom: Atom) -> bool:
        raise TypeError("InstanceView is read-only; mutate the underlying store")
