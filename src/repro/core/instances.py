"""Instances and databases.

An *instance* is a (possibly growing) set of ground atoms over constants and
nulls; a *database* is a finite set of facts (constant-only atoms).  The
chase starts from a database and produces an instance.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from ..exceptions import ValidationError
from .atoms import Atom, atom_sort_key
from .indexing import PositionIndex, atom_partition_of
from .predicates import Predicate, Schema
from .terms import Constant, Null, Term


class Instance:
    """A mutable set of ground atoms indexed by predicate.

    The per-predicate index is what makes trigger enumeration for linear
    TGDs (one body atom) linear in the number of matching atoms rather than
    in the size of the whole instance.

    On top of the predicate buckets the instance maintains two further
    structures used by the indexed trigger engine
    (:mod:`repro.chase.matching`):

    * **position indexes** — for each predicate, a lazily-built hash index
      mapping ``(position, term)`` to the atoms holding *term* at
      *position*; once built for a predicate it is maintained
      incrementally on every ``add``;
    * an **incremental term index** — the sets of constants and nulls
      occurring in the instance, updated on ``add`` so that ``domain()``/
      ``constants()``/``nulls()`` never rescan the atoms.

    The class structurally implements the
    :class:`repro.storage.atom_store.AtomStore` protocol, which is the
    store interface the chase engines run against.
    """

    def __init__(self, atoms: Iterable[Atom] = ()):
        self._by_predicate: Dict[Predicate, Set[Atom]] = defaultdict(set)
        self._size = 0
        self._constants: Set[Constant] = set()
        self._nulls: Set[Null] = set()
        # Built on the first indexed lookup for a predicate, then kept up
        # to date by every add.
        self._position_index: Dict[Predicate, PositionIndex] = {}
        self.add_all(atoms)

    # ------------------------------------------------------------------ #
    # Mutation

    def add(self, atom: Atom) -> bool:
        """Add *atom*; return ``True`` when it was not already present."""
        terms = atom.terms
        for term in terms:
            if not isinstance(term, (Constant, Null)):
                raise ValidationError(f"instances contain ground atoms only, got {atom!r}")
        bucket = self._by_predicate[atom.predicate]
        if atom in bucket:
            return False
        bucket.add(atom)
        self._size += 1
        for term in terms:
            if isinstance(term, Null):
                self._nulls.add(term)
            else:
                self._constants.add(term)
        index = self._position_index.get(atom.predicate)
        if index is not None:
            index.register(atom)
        return True

    def add_all(self, atoms: Iterable[Atom]) -> int:
        """Add every atom of *atoms*; return how many were new."""
        return sum(1 for atom in atoms if self.add(atom))

    # ------------------------------------------------------------------ #
    # Queries

    def __contains__(self, atom: Atom) -> bool:
        bucket = self._by_predicate.get(atom.predicate)
        return bucket is not None and atom in bucket

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Atom]:
        for predicate in sorted(self._by_predicate):
            yield from sorted(self._by_predicate[predicate], key=atom_sort_key)

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return set(self) == set(other)

    def __repr__(self):
        return f"{type(self).__name__}({self._size} atoms, {len(self._by_predicate)} predicates)"

    def atoms(self) -> FrozenSet[Atom]:
        """Return all atoms as a frozen set."""
        return frozenset(a for bucket in self._by_predicate.values() for a in bucket)

    def atoms_with_predicate(self, predicate: Predicate) -> FrozenSet[Atom]:
        """Return the atoms whose predicate is *predicate* (possibly empty)."""
        return frozenset(self._by_predicate.get(predicate, frozenset()))

    def predicate_cardinality(self, predicate: Predicate) -> int:
        """Return ``|R^I|``: the number of atoms over *predicate* (cached)."""
        bucket = self._by_predicate.get(predicate)
        return 0 if bucket is None else len(bucket)

    def _ensure_position_index(self, predicate: Predicate) -> PositionIndex:
        index = self._position_index.get(predicate)
        if index is None:
            index = PositionIndex(self._by_predicate.get(predicate, ()))
            self._position_index[predicate] = index
        return index

    def atoms_matching(
        self, predicate: Predicate, bindings: Optional[Mapping[int, Term]] = None
    ) -> Iterable[Atom]:
        """Return the atoms over *predicate* whose term at each position of
        *bindings* equals the bound term.

        *bindings* maps 0-based argument positions to ground terms; the
        lookup goes through the predicate's :class:`PositionIndex`.  The
        returned collection must be treated as read-only.
        """
        bucket = self._by_predicate.get(predicate)
        if not bucket:
            return ()
        if not bindings:
            return bucket
        return self._ensure_position_index(predicate).lookup(bindings)

    def atoms_partition(
        self,
        predicate: Predicate,
        key_positions: Tuple[int, ...],
        n_partitions: int,
        partition_index: int,
    ) -> Iterator[Atom]:
        """Yield the atoms over *predicate* owned by one hash partition.

        Partition membership is decided by the stable
        :func:`~repro.core.indexing.partition_hash` of the terms at
        *key_positions* (the whole term tuple when empty), so every store —
        coordinator or per-worker replica — agrees on who owns which atom.
        The parallel chase uses this for its partitioned initial-round scans.
        """
        bucket = self._by_predicate.get(predicate)
        if not bucket:
            return
        if n_partitions <= 1:
            yield from bucket
            return
        for atom in bucket:
            if atom_partition_of(atom, key_positions, n_partitions) == partition_index:
                yield atom

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
        for bucket in self._by_predicate.values():
            yield from bucket

    def atom_count(self) -> int:
        """AtomStore alias for ``len(self)``."""
        return self._size

    def predicates(self) -> FrozenSet[Predicate]:
        """Return the predicates that have at least one atom."""
        return frozenset(p for p, bucket in self._by_predicate.items() if bucket)

    def schema(self) -> Schema:
        """Return a :class:`Schema` over the non-empty predicates."""
        return Schema(self.predicates())

    def domain(self) -> FrozenSet[Term]:
        """Return ``dom(I)``: the constants and nulls occurring in the instance.

        Answered from the incremental term index maintained by :meth:`add`,
        so it costs one set copy instead of a scan over every atom.
        """
        return frozenset(self._constants) | frozenset(self._nulls)

    def constants(self) -> FrozenSet[Constant]:
        """Return the constants occurring in the instance."""
        return frozenset(self._constants)

    def nulls(self) -> FrozenSet[Null]:
        """Return the labeled nulls occurring in the instance."""
        return frozenset(self._nulls)

    def copy(self) -> "Instance":
        """Return a shallow copy (atoms are immutable so this is safe)."""
        clone = type(self)()
        for predicate, bucket in self._by_predicate.items():
            clone._by_predicate[predicate] = set(bucket)
            clone._size += len(bucket)
        clone._constants = set(self._constants)
        clone._nulls = set(self._nulls)
        # Position indexes are rebuilt lazily on the clone.
        return clone


class Database(Instance):
    """A finite set of facts (atoms over constants only)."""

    def add(self, atom: Atom) -> bool:
        if not atom.is_fact():
            raise ValidationError(
                f"databases contain facts (constants only), got {atom!r}"
            )
        return super().add(atom)

    def to_instance(self) -> Instance:
        """Return a plain :class:`Instance` copy (used as the chase seed)."""
        return Instance(self.atoms())


def induced_database(schema_or_tgds, constant_prefix: str = "c") -> Database:
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
        terms = tuple(
            Constant(f"{constant_prefix}_{predicate.name}_{i}")
            for i in range(1, predicate.arity + 1)
        )
        database.add(Atom(predicate, terms))
    return database
