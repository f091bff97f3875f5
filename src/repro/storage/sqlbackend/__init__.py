"""The persistent SQL substrate: SQLite-backed storage, joins, and shape queries.

Three layers, all speaking the protocols the rest of the system already
uses, so the chase and the termination checkers run against a disk file
exactly as they run in memory:

* :class:`SqliteAtomStore` — the :class:`~repro.storage.atom_store.AtomStore`
  over one SQLite database (``chase --backend sqlite[:path]``);
* :class:`PushdownExecutor` — the whole chase fixpoint compiled into the
  database (``chase --strategy sql-pushdown``): one set-based statement
  batch per (rule, delta round), nulls invented in SQL (see
  :mod:`.pushdown`);
* :class:`SqliteShapeFinder` — the paper's in-database ``FindShapes``
  issuing real ``EXISTS`` queries instead of Python row scans.

:class:`SqliteOverlayStore` is the out-of-core worker-side companion of
:class:`SqliteAtomStore`: it attaches a persistent store file *read-only*
and overlays private deltas in memory, which is how the parallel chase's
process workers share a disk-resident seed without pickling it.  The
pushdown strategy refuses it: compiled statements read plain tables.
"""

from .pushdown import (
    SKOLEM_FUNCTION,
    CompiledRule,
    PushdownExecutor,
    register_skolem_function,
)
from .shapes import SqliteShapeFinder, shape_query_sqlite
from .store import MEMORY_PATH, SqliteAtomStore, SqliteOverlayStore, table_name

__all__ = [
    "CompiledRule",
    "MEMORY_PATH",
    "PushdownExecutor",
    "SKOLEM_FUNCTION",
    "SqliteAtomStore",
    "SqliteOverlayStore",
    "SqliteShapeFinder",
    "shape_query_sqlite",
    "register_skolem_function",
    "table_name",
]
