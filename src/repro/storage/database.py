"""The relational store and its catalog.

:class:`RelationalDatabase` is the in-process stand-in for the PostgreSQL
instance of the paper.  It exposes exactly the operations the termination
algorithms rely on:

* a **catalog** — the list of non-empty relations, answered without touching
  the data (the paper issues a catalog query for step 1 of ``Supports``);
* full-relation **scans** used by the in-memory ``FindShapes``;
* per-shape **existence queries** with equality/disequality conditions used
  by the in-database ``FindShapes`` (see :mod:`repro.storage.queries`);
* **prefix views** — virtual databases made of the first ``k`` tuples of
  every relation, matching the ``D*`` views of Section 8.1.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.atoms import Atom
from ..core.instances import Database
from ..core.predicates import Predicate, Schema
from ..exceptions import StorageError, UnknownRelationError
from .relation import Relation


class RelationalDatabase:
    """A named collection of relations with a catalog."""

    def __init__(self, name: str = "db"):
        self.name = name
        self._relations: Dict[str, Relation] = {}

    # ------------------------------------------------------------------ #
    # DDL

    def create_relation(self, predicate: Predicate) -> Relation:
        """Create (or return the existing) relation for *predicate*."""
        existing = self._relations.get(predicate.name)
        if existing is not None:
            if existing.predicate.arity != predicate.arity:
                raise StorageError(
                    f"relation {predicate.name!r} already exists with arity "
                    f"{existing.predicate.arity}, cannot recreate with arity {predicate.arity}"
                )
            return existing
        relation = Relation(predicate)
        self._relations[predicate.name] = relation
        return relation

    # ------------------------------------------------------------------ #
    # DML

    def insert(self, predicate_name: str, row) -> None:
        """Insert a tuple into an existing relation."""
        self.relation(predicate_name).insert(row)

    def insert_atom(self, atom: Atom) -> None:
        """Insert a fact, creating its relation on demand."""
        relation = self.create_relation(atom.predicate)
        relation.insert_atom(atom)

    def load_database(self, database: Database) -> int:
        """Bulk-load a :class:`~repro.core.instances.Database`; return the row count."""
        count = 0
        for atom in database:
            self.insert_atom(atom)
            count += 1
        return count

    # ------------------------------------------------------------------ #
    # Catalog and lookup

    def relation(self, name: str) -> Relation:
        """Return the relation called *name* or raise :class:`UnknownRelationError`."""
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(f"unknown relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def relations(self) -> List[Relation]:
        """Return every relation, sorted by name."""
        return [self._relations[name] for name in sorted(self._relations)]

    def relation_names(self) -> List[str]:
        """Return the names of every relation, sorted."""
        return sorted(self._relations)

    def schema(self) -> Schema:
        """Return the schema of every relation (empty or not)."""
        return Schema(relation.predicate for relation in self._relations.values())

    def non_empty_predicates(self) -> List[Predicate]:
        """Catalog query: the predicates of the relations that hold at least one tuple.

        This is the stand-in for the paper's "single SQL query on the catalog
        of the DBMS" (Section 5.3, step 1) and deliberately does not scan any
        tuple data.
        """
        return [
            relation.predicate
            for relation in self.relations()
            if not relation.is_empty()
        ]

    # ------------------------------------------------------------------ #
    # Statistics

    def total_rows(self) -> int:
        """Return the total number of tuples across all relations (``n-atoms``)."""
        return sum(len(relation) for relation in self._relations.values())

    def row_counts(self) -> Dict[str, int]:
        """Return a name → row-count mapping."""
        return {name: len(relation) for name, relation in self._relations.items()}

    # ------------------------------------------------------------------ #
    # Conversion

    def to_database(self, limit_per_relation: Optional[int] = None) -> Database:
        """Materialise the contents as a :class:`~repro.core.instances.Database`."""
        database = Database()
        for relation in self.relations():
            for atom in relation.atoms(limit=limit_per_relation):
                database.add(atom)
        return database

    @classmethod
    def from_database(cls, database: Database, name: str = "db") -> "RelationalDatabase":
        """Build a relational store from a fact set."""
        store = cls(name=name)
        store.load_database(database)
        return store
