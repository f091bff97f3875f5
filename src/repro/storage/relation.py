"""Relations: named, fixed-arity tuple stores.

The paper keeps its databases in PostgreSQL; this module is the storage
substrate that stands in for it (see DESIGN.md).  A :class:`Relation` stores
tuples of constants for one predicate, preserves insertion order (the paper's
``D*`` views rely on "the first k tuples per predicate"), and offers the
primitive scans the two ``FindShapes`` implementations need.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.atoms import Atom
from ..core.predicates import Predicate
from ..core.terms import Constant, GroundTerm, Null
from ..exceptions import StorageError

Row = Tuple[str, ...]

#: Prefix marking a stored value as a labeled null (mirrors ``Null.__str__``).
NULL_MARKER = "_:"

#: Prefix escaping constants whose own name would collide with a marker.
ESCAPE_MARKER = "_e:"


def encode_term(term: GroundTerm) -> str:
    """Encode a ground term as a stored string value.

    Constants are stored by name; labeled nulls are prefixed with
    ``NULL_MARKER`` so that chase-produced atoms survive a round-trip through
    the relational backend with their null identity intact.  The rare
    constant whose name itself starts with a marker is escaped with
    ``ESCAPE_MARKER``, keeping the encoding injective.
    """
    if isinstance(term, Null):
        return f"{NULL_MARKER}{term.name}"
    name = term.name
    if name.startswith((NULL_MARKER, ESCAPE_MARKER)):
        return f"{ESCAPE_MARKER}{name}"
    return name


def decode_value(value: str) -> GroundTerm:
    """Decode a stored string value back into a :class:`Constant` or :class:`Null`."""
    if value.startswith(ESCAPE_MARKER):
        return Constant(value[len(ESCAPE_MARKER):])
    if value.startswith(NULL_MARKER):
        return Null(value[len(NULL_MARKER):])
    return Constant(value)


class Relation:
    """An append-only relation with string-valued attributes.

    Tuples are stored as tuples of strings (constant names); the conversion
    to and from :class:`~repro.core.atoms.Atom` happens at the edges, so scan
    loops never pay per-row object construction costs.
    """

    def __init__(self, predicate: Predicate):
        self.predicate = predicate
        self._rows: List[Row] = []

    # ------------------------------------------------------------------ #
    # Mutation

    def insert(self, row: Sequence) -> None:
        """Append a tuple (values are stringified)."""
        values = tuple(str(value) for value in row)
        if len(values) != self.predicate.arity:
            raise StorageError(
                f"relation {self.predicate} expects {self.predicate.arity} values, "
                f"got {len(values)}"
            )
        self._rows.append(values)

    def insert_many(self, rows: Iterable[Sequence]) -> int:
        """Append every tuple of *rows*; return how many were inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def insert_atom(self, atom: Atom) -> None:
        """Append the tuple of an atom's ground arguments (nulls are encoded)."""
        if atom.predicate != self.predicate:
            raise StorageError(
                f"atom {atom!r} does not belong to relation {self.predicate}"
            )
        self.insert(tuple(encode_term(term) for term in atom.terms))

    # ------------------------------------------------------------------ #
    # Scans

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __repr__(self) -> str:
        return f"Relation({self.predicate}, {len(self)} rows)"

    @property
    def name(self) -> str:
        """The relation (predicate) name."""
        return self.predicate.name

    @property
    def arity(self) -> int:
        """The relation arity."""
        return self.predicate.arity

    def rows(self, limit: Optional[int] = None, start: int = 0) -> Iterator[Row]:
        """Scan the rows in insertion order: ``rows[start:limit]``, answered by a list slice."""
        if limit is None and not start:
            return iter(self._rows)
        return iter(self._rows[start:limit])

    def chunks(self, chunk_size: int, limit: Optional[int] = None) -> Iterator[List[Row]]:
        """Scan the rows in chunks of *chunk_size* (the in-memory ``FindShapes`` splitter)."""
        if chunk_size <= 0:
            raise StorageError("chunk_size must be positive")
        rows = self._rows if limit is None else self._rows[:limit]
        for start in range(0, len(rows), chunk_size):
            yield rows[start:start + chunk_size]

    def atoms(self, limit: Optional[int] = None) -> Iterator[Atom]:
        """Scan the rows as atoms (decoding stored values back into terms)."""
        for row in self.rows(limit=limit):
            yield Atom(self.predicate, tuple(decode_value(value) for value in row))

    def is_empty(self) -> bool:
        """Return ``True`` when the relation has no tuples."""
        return not self._rows
