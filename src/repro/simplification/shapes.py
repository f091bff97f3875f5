"""Shapes of atoms and the shape algebra (Section 3, "simplification").

For a tuple of terms ``t̄ = (t1, ..., tn)``:

* ``unique(t̄)`` keeps only the first occurrence of each term;
* ``id_{t̄}(ti)`` is the index (1-based) of ``ti`` inside ``unique(t̄)``;
* ``id(t̄)`` is the tuple of identifiers, e.g. ``id((x, y, x, z, y)) =
  (1, 2, 1, 3, 2)``.

The *shape* of an atom ``R(t̄)`` is the predicate ``R_{id(t̄)}`` and its
*simplification* is the atom ``R_{id(t̄)}(unique(t̄))``.  Shapes are the
currency of the dynamic simplification algorithm: the database contributes
its shapes, the TGDs derive new shapes, and only the simplified TGDs whose
body shape is derivable are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from ..core.atoms import Atom
from ..core.instances import Database, Instance
from ..core.predicates import Predicate, Schema
from ..core.terms import Constant


def unique_tuple(terms: Sequence) -> Tuple:
    """Return ``unique(t̄)``: the subsequence of first occurrences."""
    seen = set()
    result = []
    for term in terms:
        if term not in seen:
            seen.add(term)
            result.append(term)
    return tuple(result)


def identifier_tuple(terms: Sequence) -> Tuple[int, ...]:
    """Return ``id(t̄)``, e.g. ``id((x, y, x, z, y)) == (1, 2, 1, 3, 2)``."""
    first_index: Dict = {}
    result = []
    for term in terms:
        if term not in first_index:
            first_index[term] = len(first_index) + 1
        result.append(first_index[term])
    return tuple(result)


def first_occurrence_keys(rows: Iterable[Tuple]) -> Iterator[Tuple[int, ...]]:
    """Per row one C-level key: ``(x, y, x, z, y)`` gives ``(0, 1, 0, 3, 1)``.

    The first-occurrence index of each position is in bijection with ``id(t̄)``, so the
    scans below hash a key per row and call :func:`identifier_tuple` once per distinct key.
    """
    return (tuple(map(row.index, row)) for row in rows)


def row_patterns(rows: Iterable[Tuple]) -> Set[Tuple[int, ...]]:
    """Return ``{id(t̄) : t̄ ∈ rows}`` — the row scan under every in-process ``FindShapes``."""
    return {identifier_tuple(key) for key in set(first_occurrence_keys(rows))}


def first_rows_of_patterns(rows: Iterable[Tuple], start: int = 0) -> Dict[Tuple[int, ...], int]:
    """Map each ``id(t̄)`` of *rows* to the count of its first row, counting from ``start + 1``."""
    first: Dict[Tuple[int, ...], int] = {}
    for count, key in enumerate(first_occurrence_keys(rows), start + 1):
        first.setdefault(key, count)
    return {identifier_tuple(key): count for key, count in first.items()}


def is_identifier_tuple(ids: Sequence[int]) -> bool:
    """Return ``True`` when *ids* is a well-formed identifier tuple.

    A well-formed identifier tuple starts at 1 and never skips: the ``k``-th
    *new* value to appear must be ``k`` (restricted growth string).  The empty
    tuple is the (unique) restricted growth string of length 0 — it is the
    shape of a nullary atom ``R()``.
    """
    highest = 0
    for value in ids:
        if not isinstance(value, int) or value < 1:
            return False
        if value > highest + 1:
            return False
        highest = max(highest, value)
    return True


@dataclass(frozen=True, order=True)
class Shape:
    """The shape ``R_{id(t̄)}`` of an atom: a predicate name plus an identifier tuple."""

    predicate_name: str
    identifiers: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not is_identifier_tuple(self.identifiers):
            raise ValueError(f"{self.identifiers!r} is not a valid identifier tuple")

    @property
    def arity(self) -> int:
        """Arity of the original predicate (length of the identifier tuple)."""
        return len(self.identifiers)

    @property
    def distinct_terms(self) -> int:
        """Number of distinct terms the shape describes (max identifier)."""
        return max(self.identifiers, default=0)

    def is_simple(self) -> bool:
        """Return ``True`` for the identity shape ``(1, 2, ..., n)`` (no repetitions)."""
        return self.identifiers == tuple(range(1, len(self.identifiers) + 1))

    def as_predicate(self) -> Predicate:
        """Return the shape as a fresh predicate ``R__1_2_1`` of reduced arity.

        The reduced arity is the number of *distinct* identifiers, because the
        simplification of an atom keeps only the first occurrence of each term.
        """
        suffix = "_".join(str(i) for i in self.identifiers)
        return Predicate(f"{self.predicate_name}__{suffix}", self.distinct_terms)

    def canonical_atom(self) -> Atom:
        """Return the atom ``R(id(t̄))`` of ``DB[{shape}]`` with integer-named constants."""
        base = Predicate(self.predicate_name, self.arity)
        return Atom(base, tuple(Constant(str(i)) for i in self.identifiers))

    def equal_position_pairs(self) -> Set[Tuple[int, int]]:
        """Return the 1-based position pairs (i < j) forced equal by the shape."""
        pairs = set()
        for i in range(len(self.identifiers)):
            for j in range(i + 1, len(self.identifiers)):
                if self.identifiers[i] == self.identifiers[j]:
                    pairs.add((i + 1, j + 1))
        return pairs

    def refines(self, other: "Shape") -> bool:
        """Return ``True`` when this shape forces every equality that *other* forces.

        Used by the Apriori-style pruning of the in-database ``FindShapes``:
        if the relaxed (equality-only) query of *other* is empty, every shape
        that refines it is empty as well.
        """
        if self.predicate_name != other.predicate_name or self.arity != other.arity:
            return False
        return self.equal_position_pairs() >= other.equal_position_pairs()

    def __str__(self) -> str:
        ids = ",".join(str(i) for i in self.identifiers)
        return f"{self.predicate_name}[{ids}]"


def shape_of_atom(atom: Atom) -> Shape:
    """Return ``shape(α)`` for an atom ``α``."""
    return Shape(atom.predicate.name, identifier_tuple(atom.terms))


def simplify_atom(atom: Atom) -> Atom:
    """Return ``simple(α)``: the atom ``R_{id(t̄)}(unique(t̄))``."""
    shape = shape_of_atom(atom)
    return Atom(shape.as_predicate(), unique_tuple(atom.terms))


def simplify_instance(instance: Instance) -> Instance:
    """Return ``simple(I)``: the instance with every atom simplified."""
    result = type(instance)()
    for atom in instance:
        result.add(simplify_atom(atom))
    return result


def simplify_database(database: Database) -> Database:
    """Return ``simple(D)`` as a database."""
    result = Database()
    for atom in database:
        result.add(simplify_atom(atom))
    return result


def shapes_of_database(database: Instance) -> Set[Shape]:
    """Return ``shape(D)``: the set of shapes of the atoms of *database*
    (read as rows, so no :class:`Atom` is built)."""
    return {
        Shape(predicate.name, ids)
        for predicate in database.predicates()
        for ids in row_patterns(database.rows_matching(predicate))
    }


def resolve_shapes(source: Any) -> Set[Shape]:
    """Resolve a pluggable shape source into the set of its shapes.

    Every entry point that consumes database shapes (``IsChaseFinite[L]``,
    dynamic simplification, the experiment harness) accepts the same three
    source kinds and must resolve them identically:

    * an :class:`~repro.core.instances.Instance` (including ``Database``) —
      shapes are computed by scanning its atoms;
    * an object exposing ``find_shapes()`` (the storage substrate's finders)
      — the finder is invoked;
    * any other iterable — treated as pre-computed shapes and validated
      element by element.
    """
    if isinstance(source, Instance):
        return shapes_of_database(source)
    if hasattr(source, "find_shapes"):
        return set(source.find_shapes())
    shapes = set(source)
    for shape in shapes:
        if not isinstance(shape, Shape):
            raise TypeError(
                "expected a Database, a shape finder, or an iterable of Shape; "
                f"got element {shape!r}"
            )
    return shapes


def identifier_tuples_of_arity(arity: int) -> Iterator[Tuple[int, ...]]:
    """Enumerate every valid identifier tuple of length *arity*.

    These are the restricted growth strings of length ``arity``; there are
    Bell(``arity``) of them.  ``arity=0`` yields the single empty tuple
    (Bell(0) = 1), matching the unique shape of a nullary predicate.
    """
    if arity < 0:
        raise ValueError("arity must be >= 0")

    def _extend(prefix: List[int], highest: int) -> Iterator[Tuple[int, ...]]:
        if len(prefix) == arity:
            yield tuple(prefix)
            return
        for value in range(1, highest + 2):
            prefix.append(value)
            yield from _extend(prefix, max(highest, value))
            prefix.pop()

    yield from _extend([], 0)


def shapes_of_predicate(predicate: Predicate) -> Iterator[Shape]:
    """Enumerate every shape of *predicate* (Bell(arity) many)."""
    for identifiers in identifier_tuples_of_arity(predicate.arity):
        yield Shape(predicate.name, identifiers)


def shapes_of_schema(schema: Schema) -> Iterator[Shape]:
    """Enumerate ``shape(S)`` for a schema ``S``."""
    for predicate in schema:
        yield from shapes_of_predicate(predicate)


def database_of_shapes(shapes: Iterable[Shape]) -> Database:
    """Return ``DB[S]``: the database induced by a set of shapes.

    For example, ``DB[{R_(1,2), P_(1,1,2)}] = {R(1,2), P(1,1,2)}`` with the
    integers read as constants.
    """
    database = Database()
    for shape in shapes:
        database.add(shape.canonical_atom())
    return database


def count_shapes(database: Instance) -> int:
    """Return ``n-shapes`` for a database — one of the paper's reported statistics."""
    return len(shapes_of_database(database))
