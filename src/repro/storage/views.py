"""Prefix views over a relational store (the ``D*`` views of Section 8.1).

The paper generates one very large database ``D*`` and then defines
*virtual* databases containing the first ``k`` tuples of every relation
(1K, 50K, 100K, 250K, 500K per predicate).  :class:`PrefixView` reproduces
that mechanism: it wraps a :class:`~repro.storage.database.RelationalDatabase`
and exposes the same read-only interface restricted to a per-relation prefix,
without copying any data.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..core.instances import Database
from ..core.predicates import Predicate, Schema
from .database import RelationalDatabase
from .relation import Relation, Row


class _RelationView:
    """A read-only, length-limited view over a single relation."""

    def __init__(self, relation: Relation, limit: int):
        self._relation = relation
        self._limit = limit

    @property
    def predicate(self) -> Predicate:
        return self._relation.predicate

    @property
    def name(self) -> str:
        return self._relation.name

    @property
    def arity(self) -> int:
        return self._relation.arity

    def __len__(self) -> int:
        return min(len(self._relation), self._limit)

    def __iter__(self) -> Iterator[Row]:
        return self.rows()

    def rows(self, limit: Optional[int] = None, start: int = 0) -> Iterator[Row]:
        effective = self._limit if limit is None else min(limit, self._limit)
        return self._relation.rows(limit=effective, start=start)

    def atoms(self, limit: Optional[int] = None):
        effective = self._limit if limit is None else min(limit, self._limit)
        return self._relation.atoms(limit=effective)

    def is_empty(self) -> bool:
        return len(self) == 0


class PrefixView:
    """A virtual database keeping the first *tuples_per_relation* tuples of each relation.

    When *predicates* is given (a collection of predicate names or
    :class:`~repro.core.predicates.Predicate` objects), the view additionally
    hides every other relation; the experiment harness uses this to restrict
    ``D*`` to ``sch(Σ)`` as the paper does (footnote 1 of Section 4).
    """

    def __init__(
        self,
        store: RelationalDatabase,
        tuples_per_relation: int,
        name: Optional[str] = None,
        predicates=None,
    ):
        if tuples_per_relation < 0:
            raise ValueError("tuples_per_relation must be non-negative")
        self._store = store
        self._limit = tuples_per_relation
        self.name = name or f"{store.name}_first_{tuples_per_relation}"
        if predicates is None:
            self._visible = None
        else:
            self._visible = {
                item.name if isinstance(item, Predicate) else str(item)
                for item in predicates
            }

    @property
    def store(self) -> RelationalDatabase:
        """The base store this view restricts (shared by all sibling views)."""
        return self._store

    @property
    def tuples_per_relation(self) -> int:
        """The per-relation prefix length."""
        return self._limit

    def restricted_to(self, predicates, name: Optional[str] = None) -> "PrefixView":
        """Return a copy of the view additionally restricted to *predicates*."""
        return PrefixView(
            self._store,
            self._limit,
            name=name or self.name,
            predicates=predicates,
        )

    def _is_visible(self, name: str) -> bool:
        return self._visible is None or name in self._visible

    def relation(self, name: str) -> _RelationView:
        """Return a view over the relation called *name*."""
        if not self._is_visible(name):
            raise KeyError(f"relation {name!r} is not visible in this view")
        return _RelationView(self._store.relation(name), self._limit)

    def relations(self) -> List[_RelationView]:
        """Return a view over every visible relation, sorted by name."""
        return [
            _RelationView(relation, self._limit)
            for relation in self._store.relations()
            if self._is_visible(relation.name)
        ]

    def relation_names(self) -> List[str]:
        """Return the names of every visible relation."""
        return [name for name in self._store.relation_names() if self._is_visible(name)]

    def schema(self) -> Schema:
        """Return the schema of the visible relations."""
        return Schema(view.predicate for view in self.relations())

    def non_empty_predicates(self) -> List[Predicate]:
        """Catalog query over the view (a relation is non-empty when its prefix is)."""
        return [view.predicate for view in self.relations() if not view.is_empty()]

    def total_rows(self) -> int:
        """Return the total number of visible tuples."""
        return sum(len(view) for view in self.relations())

    def row_counts(self) -> Dict[str, int]:
        """Return a name → visible-row-count mapping."""
        return {view.name: len(view) for view in self.relations()}

    def to_database(self) -> Database:
        """Materialise the visible tuples as a fact set."""
        database = Database()
        for view in self.relations():
            for atom in view.atoms():
                database.add(atom)
        return database
