"""Instances and databases.

An *instance* is a (possibly growing) set of ground atoms over constants and
nulls; a *database* is a finite set of facts (constant-only atoms).  The
chase starts from a database and produces an instance.
"""

from __future__ import annotations

from typing import (
    Any,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
)

from ..exceptions import ValidationError
from .atoms import Atom, row_sort_key
from .indexing import Postings, Row, post_rows
from .predicates import Predicate, Schema
from .terms import Constant, Null, Term


class Instance:
    """A mutable set of ground atoms, stored as rows per predicate.

    A *row* is the term tuple of one atom; the instance keeps
    ``predicate -> {rows}`` and builds an :class:`Atom` only when a caller
    asks for one (iteration, :meth:`atoms`, the ``atoms_*`` queries).  The
    chase engines trade rows through :meth:`add_rows`, :meth:`rows_matching`
    and :meth:`has_row` and never build one.

    On top of the per-predicate rows the instance maintains two structures
    used by the indexed trigger engine (:mod:`repro.chase.matching`):

    * **position postings** — for each ``(predicate, position)``, a
      ``term -> [rows]`` dict built on the first lookup binding that
      position and fed every later insert (:func:`~repro.core.indexing.post_rows`);
    * an **incremental term index** — the terms occurring in the instance,
      updated on insert so that ``domain()``/``constants()``/``nulls()``
      never rescan the rows.

    The class structurally implements the
    :class:`repro.storage.atom_store.AtomStore` protocol, which is the
    store interface the chase engines run against.
    """

    #: The term classes a row may hold, and what a row breaking that is told.
    _term_types: FrozenSet[type] = frozenset({Constant, Null})
    _term_error = "instances contain ground atoms only"

    def __init__(self, atoms: Iterable[Atom] = ()) -> None:
        self._rows: Dict[Predicate, Set[Row]] = {}
        self._size = 0
        self._terms: Set[Term] = set()
        # Per predicate, one postings dict per position (None until a lookup
        # binds that position).
        self._postings: Dict[Predicate, List[Optional[Postings]]] = {}
        self.add_all(atoms)

    # ------------------------------------------------------------------ #
    # Mutation

    def add_rows(self, predicate: Predicate, rows: Iterable[Row]) -> int:
        """Add the term tuples *rows* over *predicate*; return how many were new.

        Every row must have the predicate's arity and hold ground terms only
        (constants only, for a :class:`Database`); the first row breaking
        that raises :class:`ValidationError`, after the rows before it went
        in.
        """
        bucket = self._rows.get(predicate)
        if bucket is None:
            bucket = self._rows[predicate] = set()
        arity = predicate.arity
        allowed = self._term_types
        terms = self._terms
        new: List[Row] = []
        size = len(bucket)
        try:
            for row in rows:
                bucket.add(row)
                if len(bucket) == size:
                    continue  # already present
                if len(row) != arity or not allowed.issuperset(map(type, row)):
                    bucket.discard(row)
                    raise ValidationError(self._invalid(predicate, row))
                size += 1
                terms.update(row)
                new.append(row)
        finally:
            if new:
                self._size += len(new)
                for position, postings in enumerate(self._postings.get(predicate, ())):
                    if postings is not None:
                        post_rows(postings, position, new)
        return len(new)

    def _invalid(self, predicate: Predicate, row: Row) -> str:
        if len(row) != predicate.arity:
            return (
                f"atom over {predicate} must have {predicate.arity} arguments, "
                f"got {len(row)}"
            )
        return f"{self._term_error}, got {predicate.name}({', '.join(map(str, row))})"

    def add(self, atom: Atom) -> bool:
        """Add *atom*; return ``True`` when it was not already present."""
        return self.add_rows(atom.predicate, (atom.terms,)) == 1

    def add_all(self, atoms: Iterable[Atom]) -> int:
        """Add every atom of *atoms*; return how many were new."""
        groups: Dict[Predicate, List[Row]] = {}
        for atom in atoms:
            groups.setdefault(atom.predicate, []).append(atom.terms)
        return sum(self.add_rows(predicate, rows) for predicate, rows in groups.items())

    # ------------------------------------------------------------------ #
    # Row queries (the chase engines' access path)

    def has_row(self, predicate: Predicate, row: Row) -> bool:
        """Return ``True`` when the row *row* over *predicate* is stored."""
        bucket = self._rows.get(predicate)
        return bucket is not None and row in bucket

    def rows_matching(
        self, predicate: Predicate, bindings: Optional[Mapping[int, Term]] = None
    ) -> Collection[Row]:
        """Return the rows over *predicate* whose term at each position of
        *bindings* equals the bound term.

        *bindings* maps 0-based argument positions to ground terms; ``None``
        or an empty mapping selects the whole relation.  The smallest bound
        posting is scanned and the other bindings are checked on each row.
        The returned collection must be treated as read-only.
        """
        bucket = self._rows.get(predicate)
        if not bucket:
            return ()
        if not bindings:
            return bucket
        postings = self._postings.get(predicate)
        if postings is None:
            postings = self._postings[predicate] = [None] * predicate.arity
        smallest: Optional[List[Row]] = None
        for position, term in bindings.items():
            if not 0 <= position < predicate.arity:
                return ()
            index = postings[position]
            if index is None:
                index = postings[position] = {}
                post_rows(index, position, bucket)
            posting = index.get(term)
            if posting is None:
                return ()
            if smallest is None or len(posting) < len(smallest):
                smallest = posting
        if smallest is None or len(bindings) == 1:
            return smallest or ()
        items = tuple(bindings.items())
        return [
            row for row in smallest if all(row[position] == term for position, term in items)
        ]

    # ------------------------------------------------------------------ #
    # Atom queries (the public API edge)

    def __contains__(self, atom: Atom) -> bool:
        return self.has_row(atom.predicate, atom.terms)

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Atom]:
        for predicate in sorted(self._rows):
            for row in sorted(self._rows[predicate], key=row_sort_key):
                yield Atom(predicate, row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self._nonempty() == other._nonempty()

    def _nonempty(self) -> Dict[Predicate, Set[Row]]:
        return {predicate: bucket for predicate, bucket in self._rows.items() if bucket}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._size} atoms, {len(self._nonempty())} predicates)"

    def atoms(self) -> FrozenSet[Atom]:
        """Return all atoms as a frozen set."""
        return frozenset(self.iter_atoms())

    def atoms_with_predicate(self, predicate: Predicate) -> FrozenSet[Atom]:
        """Return the atoms whose predicate is *predicate* (possibly empty)."""
        return frozenset(Atom(predicate, row) for row in self._rows.get(predicate, ()))

    def predicate_cardinality(self, predicate: Predicate) -> int:
        """Return ``|R^I|``: the number of atoms over *predicate* (cached)."""
        bucket = self._rows.get(predicate)
        return 0 if bucket is None else len(bucket)

    def atoms_matching(
        self, predicate: Predicate, bindings: Optional[Mapping[int, Term]] = None
    ) -> Iterable[Atom]:
        """:meth:`rows_matching` as atoms."""
        return [Atom(predicate, row) for row in self.rows_matching(predicate, bindings)]

    # ------------------------------------------------------------------ #
    # AtomStore protocol surface (see repro.storage.atom_store)

    def add_atom(self, atom: Atom) -> bool:
        """AtomStore alias for :meth:`add`."""
        return self.add(atom)

    def has_atom(self, atom: Atom) -> bool:
        """AtomStore alias for ``atom in self``."""
        return atom in self

    def iter_atoms(self) -> Iterator[Atom]:
        """Iterate over all atoms without the sorted-order guarantee of ``__iter__``."""
        for predicate, bucket in self._rows.items():
            for row in bucket:
                yield Atom(predicate, row)

    def atom_count(self) -> int:
        """AtomStore alias for ``len(self)``."""
        return self._size

    def predicates(self) -> FrozenSet[Predicate]:
        """Return the predicates that have at least one atom."""
        return frozenset(self._nonempty())

    def schema(self) -> Schema:
        """Return a :class:`Schema` over the non-empty predicates."""
        return Schema(self.predicates())

    def domain(self) -> FrozenSet[Term]:
        """Return ``dom(I)``: the constants and nulls occurring in the instance.

        Answered from the incremental term index maintained on insert, so it
        costs one set copy instead of a scan over every row.
        """
        return frozenset(self._terms)

    def constants(self) -> FrozenSet[Constant]:
        """Return the constants occurring in the instance."""
        return frozenset(term for term in self._terms if type(term) is Constant)

    def nulls(self) -> FrozenSet[Null]:
        """Return the labeled nulls occurring in the instance."""
        return frozenset(term for term in self._terms if type(term) is Null)

    def copy(self) -> "Instance":
        """Return a shallow copy (rows are immutable so this is safe)."""
        return self._copy_into(type(self)())

    def _copy_into(self, clone: "Instance") -> "Instance":
        for predicate, bucket in self._rows.items():
            clone._rows[predicate] = set(bucket)
        clone._size = self._size
        clone._terms = set(self._terms)
        # Postings are rebuilt lazily on the clone.
        return clone


class Database(Instance):
    """A finite set of facts (atoms over constants only)."""

    _term_types = frozenset({Constant})
    _term_error = "databases contain facts (constants only)"

    def to_instance(self) -> Instance:
        """Return a plain :class:`Instance` copy (used as the chase seed)."""
        return self._copy_into(Instance())


def induced_database(schema_or_tgds: Any, constant_prefix: str = "c") -> Database:
    """Build the database ``D_Σ`` induced by a schema or TGD set (Remark 1, §7).

    ``D_Σ`` has exactly one atom ``R(c1, ..., cn)`` with pairwise distinct
    constants for each predicate ``R`` of the schema.  The paper uses this
    database in the simple-linear experiments so that every position of every
    special SCC is trivially supported.
    """
    from .tgds import TGDSet  # local import to avoid a cycle

    if isinstance(schema_or_tgds, TGDSet):
        schema = schema_or_tgds.schema()
    elif isinstance(schema_or_tgds, Schema):
        schema = schema_or_tgds
    else:
        schema = Schema(schema_or_tgds)

    database = Database()
    for predicate in schema:
        row = tuple(
            Constant(f"{constant_prefix}_{predicate.name}_{i}")
            for i in range(1, predicate.arity + 1)
        )
        database.add_rows(predicate, (row,))
    return database
