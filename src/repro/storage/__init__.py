"""Storage: the seven-member row protocol ``AtomStore`` with its SQLite
backend, ``InstanceView`` (the one atom adapter over any store), and the
relational FindShapes substrate (relations, catalog, prefix views, shape
queries)."""

from .atom_store import AtomStore, InstanceView
from .database import RelationalDatabase
from .queries import (
    disequality_condition_pairs,
    equality_condition_pairs,
    shape_exists,
    shape_query_sql,
)
from .relation import Relation
from .shape_finder import (
    DeltaShapeFinder,
    InDatabaseShapeFinder,
    InMemoryShapeFinder,
    ShapeFinderStats,
)
from .sqlbackend import (
    SqliteAtomStore,
    SqliteShapeFinder,
)
from .views import PrefixView

__all__ = [
    "AtomStore",
    "InstanceView",
    "SqliteAtomStore",
    "SqliteShapeFinder",
    "DeltaShapeFinder",
    "InDatabaseShapeFinder",
    "InMemoryShapeFinder",
    "PrefixView",
    "Relation",
    "RelationalDatabase",
    "ShapeFinderStats",
    "disequality_condition_pairs",
    "equality_condition_pairs",
    "shape_exists",
    "shape_query_sql",
]
