"""``SqliteAtomStore``: the persistent, disk-resident :class:`AtomStore`.

The paper runs IsChaseFinite[L] against PostgreSQL; the in-process
:class:`~repro.storage.database.RelationalDatabase` stands in for it but is
capped by RAM and forgets everything at process exit.  This module is the
real SQL substrate: one SQLite file (or ``":memory:"``) holding one table
per predicate, speaking the full :class:`~repro.storage.atom_store.AtomStore`
protocol so every chase engine — serial, indexed, and the hash-partitioned
parallel executor — runs against it unchanged.

Design notes
------------

* **Schema/catalog** — each predicate ``R/n`` gets a table ``rel_^r``
  (:func:`table_name` case-escapes the predicate name, because SQLite
  identifiers are case-insensitive even quoted) with
  ``TEXT`` columns ``c0..c{n-1}``, a monotone ``seq`` column (global
  insertion order, the semi-naive round watermark used by
  :mod:`~repro.storage.sqlbackend.pushdown`), and a
  ``UNIQUE`` index over the value columns for O(log n) dedup.  The
  ``repro_catalog`` table records name/arity pairs so a reopened file
  reconstructs its predicates without scanning data.
* **Term encoding** — rows reuse the ``_:`` null convention of
  :mod:`repro.storage.relation` (:func:`encode_term` / :func:`decode_value`,
  escape marker included), so chase-invented nulls round-trip through the
  file byte-for-byte and files are interchangeable with the in-process
  backend's row logs.
* **Position indexes** — per ``(predicate, position)`` covering indexes are
  created lazily on the first ``atoms_matching`` lookup binding that
  position, mirroring ``Instance``'s lazily-built position indexes; the
  unique value index already serves position 0.
* **Batching** — the store runs in manual-transaction mode: writes open one
  transaction that is committed on :meth:`flush`/:meth:`close`.  The chase
  engines flush at every round boundary (and in a ``finally`` on return or
  raise), so a round's inserts cost one fsync, not one per atom, and a hard
  crash loses at most the round in flight.  ``add_rows`` bulk loads one
  predicate's rows via ``executemany``.
* **Rows** — the chase engines trade rows (term tuples under a predicate)
  through ``add_rows``/``rows_matching``/``has_row``; a decoded row is a
  tuple of terms, and an :class:`Atom` is built only by the ``atoms_*`` /
  ``iter_atoms`` API.

Connection lifecycle: one connection per store, bound to the thread that
opened it (``sqlite3``'s default ``check_same_thread``): use from another
thread raises instead of being serialised.  Process pools never share a
store — connections are not picklable, so each worker holds an in-memory
:class:`~repro.core.instances.Instance` replica built from the streamed
seed, and the parallel executor ships *work*, never stores.
"""

from __future__ import annotations

import os
import sqlite3
from typing import (
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ...core.atoms import Atom, row_sort_key
from ...core.indexing import Row
from ...core.instances import Database, Instance
from ...core.predicates import Predicate
from ...core.terms import Constant, Null, Term
from ...exceptions import StorageError, ValidationError
from ...obs.metrics import StatementMetrics
from ..relation import decode_value, encode_term

#: The path spelling selecting a transient in-memory database.
MEMORY_PATH = ":memory:"

#: Name of the catalog table (predicate name -> arity).
CATALOG_TABLE = "repro_catalog"


def _quote(identifier: str) -> str:
    """Quote an SQL identifier (predicate names are user-controlled)."""
    return '"' + identifier.replace('"', '""') + '"'


def table_name(predicate_name: str) -> str:
    """Return the (unquoted) table name storing a predicate's relation.

    SQLite table names are case-insensitive even when quoted, so uppercase
    letters are case-escaped (``^`` + lowercase; ``^`` escapes itself) to
    keep the mapping injective — ``Foo`` and ``FOO`` are distinct
    predicates on the in-memory backends and must stay distinct tables
    (``rel_^foo`` vs ``rel_^f^o^o``).
    """
    encoded = []
    for char in predicate_name:
        if char == "^":
            encoded.append("^^")
        elif char.isupper():
            encoded.append("^" + char.lower())
        else:
            encoded.append(char)
    return "rel_" + "".join(encoded)


class SqliteAtomStore:
    """A persistent :class:`AtomStore` over one SQLite database.

    Parameters
    ----------
    path:
        Database file, or ``":memory:"`` (default) for a transient store.
        Opening an existing file restores its catalog, counts, and sequence
        watermark, so a chase can resume from persisted atoms.
    name:
        Cosmetic store name used in ``repr``.
    """

    def __init__(self, path: str = MEMORY_PATH, name: str = "sqlite") -> None:
        self.name = name
        self.path = path
        try:
            self._connection = sqlite3.connect(path, isolation_level=None)
        except sqlite3.Error as error:
            raise StorageError(
                f"cannot open sqlite database at {path!r}: {error}"
            ) from None
        self._closed = False
        self._in_transaction = False
        #: predicate name -> Predicate (the catalog, mirrored in memory).
        self._predicates: Dict[str, Predicate] = {}
        #: predicate name -> row count (kept incrementally; avoids COUNT(*)
        #: in the join-order heuristic's hot loop).
        self._counts: Dict[str, int] = {}
        #: (predicate name, position) pairs with a created index.
        self._indexed: Set[Tuple[str, int]] = set()
        self._seq = 0
        #: Optional :class:`repro.obs.StatementMetrics` timing the compiled
        #: statement families; ``None`` (the default) keeps the untraced
        #: query/bulk_apply paths to a single attribute test.
        self._statement_metrics: Optional[StatementMetrics] = None
        # connect() is lazy: a locked, corrupt, or non-database file only
        # fails at the first statement, so the whole bootstrap shares the
        # StorageError contract.
        try:
            if self.is_persistent:
                # One fsync per commit, not per statement; WAL keeps readers
                # consistent if the process dies mid-transaction.
                self._connection.execute("PRAGMA journal_mode=WAL")
                self._connection.execute("PRAGMA synchronous=NORMAL")
            # Bulk-write tuning.  A negative cache_size is KiB (16 MiB page
            # cache: the compiled pushdown statements join whole relations
            # per round, so the default 2 MiB cache thrashes first);
            # temp_store=MEMORY keeps the pushdown staging tables and sort
            # spills off the filesystem.  Neither pragma weakens durability
            # — commits still go through WAL + synchronous=NORMAL — so the
            # crash-resume contract of persistent stores is unchanged (the
            # store contract harness pins this).
            self._connection.execute("PRAGMA cache_size=-16384")
            self._connection.execute("PRAGMA temp_store=MEMORY")
            self._connection.execute(
                f"CREATE TABLE IF NOT EXISTS {CATALOG_TABLE} "
                "(name TEXT PRIMARY KEY, arity INTEGER NOT NULL)"
            )
            self._load_catalog()
        except sqlite3.Error as error:
            self._connection.close()
            self._closed = True
            raise StorageError(
                f"cannot open sqlite database at {path!r}: {error}"
            ) from None

    # ------------------------------------------------------------------ #
    # Connection lifecycle

    @property
    def is_persistent(self) -> bool:
        """``True`` when the store is backed by a file (survives the process)."""
        return self.path != MEMORY_PATH

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying connection, for UDF registration (``repro_skolem``)
        and pragma tuning; statements go through :meth:`query` /
        :meth:`bulk_apply`."""
        return self._connection

    def _load_catalog(self) -> None:
        rows = self._connection.execute(
            f"SELECT name, arity FROM {CATALOG_TABLE} ORDER BY name"
        ).fetchall()
        for predicate_name, arity in rows:
            predicate = Predicate(predicate_name, arity)
            self._predicates[predicate_name] = predicate
            table = _quote(table_name(predicate_name))
            count, top = self._connection.execute(
                f"SELECT COUNT(*), COALESCE(MAX(seq), 0) FROM {table}"
            ).fetchone()
            self._counts[predicate_name] = count
            self._seq = max(self._seq, top)

    def _begin(self) -> None:
        if not self._in_transaction:
            self._connection.execute("BEGIN")
            self._in_transaction = True

    def flush(self) -> None:
        """Commit the open write transaction (durability point for files)."""
        if self._in_transaction:
            self._connection.commit()
            self._in_transaction = False

    def close(self) -> None:
        """Commit and close the connection; the store is unusable afterwards."""
        if self._closed:
            return
        self.flush()
        self._connection.close()
        self._closed = True

    def __enter__(self) -> "SqliteAtomStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        where = self.path if self.is_persistent else "memory"
        return f"SqliteAtomStore({self.name!r}, {where}, {self.atom_count()} atoms)"

    def file_size(self) -> int:
        """Return the on-disk size in bytes (0 for in-memory stores).

        Commits and checkpoints the WAL first so the reported size reflects
        every atom added so far.
        """
        if not self.is_persistent:
            return 0
        self.flush()
        self._connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        return os.path.getsize(self.path) if os.path.exists(self.path) else 0

    def current_seq(self) -> int:
        """The insertion-sequence watermark (the semi-naive round boundary)."""
        return self._seq

    def advance_seq(self, seq: int) -> None:
        """Raise the sequence watermark after compiled bulk writes.

        The pushdown executor stamps a whole round's inserts with one
        explicit ``seq`` value through :meth:`bulk_apply` (bypassing
        :meth:`add_atom`'s per-row counter); it then advances the watermark
        here so later :meth:`add_atom` calls and reopened stores
        (``MAX(seq)`` in :meth:`_load_catalog`) stay consistent.  Never
        moves the watermark backwards.
        """
        if seq > self._seq:
            self._seq = seq

    # ------------------------------------------------------------------ #
    # Compiled-statement entry points (the sql-pushdown strategy)

    def set_statement_metrics(self, metrics: Optional[StatementMetrics]) -> None:
        """Attach (or detach, with ``None``) per-statement-family timing.

        *metrics* is a :class:`repro.obs.StatementMetrics`; once attached,
        :meth:`query`/:meth:`bulk_apply` calls that carry a ``family`` label
        record count/total/max seconds and row counts under it.  Timing is
        pure observation — it never changes what a statement does — and the
        adapter owns the clock, so this module stays free of wall-clock
        reads (reprolint's determinism rule checks that).
        """
        self._statement_metrics = metrics

    def query(
        self,
        sql: str,
        parameters: Union[Sequence[object], Mapping[str, object]] = (),
        family: Optional[str] = None,
    ) -> List[Tuple]:
        """Run one read statement; fetch all rows.

        The entry point for reads of compiled statements (the shape
        queries, ``EXPLAIN QUERY PLAN`` introspection).  *family* names
        the compiled statement family for the attached metrics (ignored when
        detached).
        """
        metrics = self._statement_metrics
        if metrics is not None and family is not None:
            started = metrics.start()
            rows = self._connection.execute(sql, parameters).fetchall()
            metrics.record(family, started, rows_read=len(rows))
            return rows
        return self._connection.execute(sql, parameters).fetchall()

    def bulk_apply(
        self,
        sql: str,
        parameters: Union[Sequence[object], Mapping[str, object]] = (),
        predicate: Optional[Predicate] = None,
        family: Optional[str] = None,
    ) -> int:
        """Run one compiled write statement inside the store transaction.

        Returns the number of rows the statement actually changed — a
        ``total_changes`` delta, so an ``INSERT OR IGNORE ... SELECT``
        reports only the genuinely new rows, exactly the quantity the
        chase's ``atoms_created`` accounting needs.  When *predicate* is
        given, the cached per-relation row count is advanced by the same
        amount (the statement is expected to target that relation).
        *family* labels the statement for the attached metrics, like
        :meth:`query`.
        """
        metrics = self._statement_metrics
        if metrics is not None and family is not None:
            started = metrics.start()
            changed = self._apply(sql, parameters, predicate)
            metrics.record(family, started, rows_changed=changed)
            return changed
        return self._apply(sql, parameters, predicate)

    def _apply(
        self,
        sql: str,
        parameters: Union[Sequence[object], Mapping[str, object]],
        predicate: Optional[Predicate],
    ) -> int:
        self._begin()
        before = self._connection.total_changes
        self._connection.execute(sql, parameters)
        changed = self._connection.total_changes - before
        if predicate is not None and changed > 0:
            self._counts[predicate.name] = (
                self._counts.get(predicate.name, 0) + changed
            )
        return changed

    # ------------------------------------------------------------------ #
    # Schema management

    @staticmethod
    def _columns(arity: int) -> List[str]:
        # Nullary predicates get a sentinel column (SQL tables need >= 1);
        # its unique constant value makes INSERT OR IGNORE dedup work there
        # too.
        if arity == 0:
            return ["c_sentinel"]
        return [f"c{i}" for i in range(arity)]

    def create_relation(self, predicate: Predicate) -> None:
        """Create (or validate) the table for *predicate*."""
        existing = self._predicates.get(predicate.name)
        if existing is not None:
            if existing.arity != predicate.arity:
                raise StorageError(
                    f"relation {predicate.name!r} already exists with arity "
                    f"{existing.arity}, cannot recreate with arity {predicate.arity}"
                )
            return
        columns = self._columns(predicate.arity)
        column_ddl = ", ".join(f"{column} TEXT NOT NULL" for column in columns)
        unique = ", ".join(columns)
        table = table_name(predicate.name)
        self._begin()
        self._connection.execute(
            f"CREATE TABLE IF NOT EXISTS {_quote(table)} "
            f"({column_ddl}, seq INTEGER NOT NULL, UNIQUE({unique}))"
        )
        # The semi-naive delta queries constrain the seed slot with
        # `seq > :delta_start`; without this index every delta round
        # would rescan the whole seed table instead of just the delta
        # suffix.
        self._connection.execute(
            f"CREATE INDEX IF NOT EXISTS {_quote(f'idx_{table}_seq')} "
            f"ON {_quote(table)} (seq)"
        )
        self._connection.execute(
            f"INSERT OR IGNORE INTO {CATALOG_TABLE} (name, arity) VALUES (?, ?)",
            (predicate.name, predicate.arity),
        )
        self._predicates[predicate.name] = predicate
        self._counts[predicate.name] = 0

    def _table_for(self, predicate: Predicate) -> Optional[str]:
        """Return the quoted table name when *predicate* matches the catalog."""
        existing = self._predicates.get(predicate.name)
        if existing is None or existing.arity != predicate.arity:
            return None
        return _quote(table_name(predicate.name))

    def has_relation(self, predicate: Predicate) -> bool:
        """``True`` when the catalog holds *predicate* with a matching arity."""
        return self._table_for(predicate) is not None

    def _ensure_position_index(self, predicate: Predicate, position: int) -> None:
        """Create the covering index for ``(predicate, position)`` lazily.

        Position 0 is already served by the leading column of the UNIQUE
        value index, so only later positions get their own index — the same
        "build on first indexed lookup, keep forever" policy as
        ``Instance``'s position indexes.
        """
        if position == 0 or (predicate.name, position) in self._indexed:
            return
        # Index names share the table's case-escaped form: the index
        # namespace is case-insensitive too.
        index = _quote(f"idx_{table_name(predicate.name)}_p{position}")
        table = _quote(table_name(predicate.name))
        self._begin()
        self._connection.execute(
            f"CREATE INDEX IF NOT EXISTS {index} ON {table} (c{position})"
        )
        self._indexed.add((predicate.name, position))

    # ------------------------------------------------------------------ #
    # Row encoding

    @staticmethod
    def _encode(row: Row) -> Tuple[str, ...]:
        if not row:
            return ("0",)  # the nullary sentinel value
        return tuple(map(encode_term, row))

    @staticmethod
    def _ground_row(predicate: Predicate, row: Row) -> List[object]:
        """:meth:`_encode` for a write: one pass that also rejects variables
        and rows of the wrong width."""
        if len(row) != predicate.arity:
            raise ValidationError(
                f"atom over {predicate} must have {predicate.arity} arguments, got {len(row)}"
            )
        values: List[object] = []
        for term in row:
            if not isinstance(term, (Constant, Null)):
                raise ValidationError(
                    f"stores hold ground atoms only, got "
                    f"{predicate.name}({', '.join(map(str, row))})"
                )
            values.append(encode_term(term))
        return values or ["0"]  # the nullary sentinel value

    @staticmethod
    def _decode(predicate: Predicate, values: Tuple[str, ...]) -> Row:
        if predicate.arity == 0:
            return ()
        return tuple(map(decode_value, values))

    def _insert_sql(self, predicate: Predicate) -> str:
        columns = self._columns(predicate.arity)
        return (
            f"INSERT OR IGNORE INTO {_quote(table_name(predicate.name))} "
            f"({', '.join(columns)}, seq) VALUES ({', '.join('?' for _ in columns)}, ?)"
        )

    # ------------------------------------------------------------------ #
    # AtomStore protocol: mutation

    def add_rows(self, predicate: Predicate, rows: Iterable[Row]) -> int:
        """Bulk-insert the term tuples *rows* over *predicate*; return how many were new.

        One ``executemany`` inside the store's open transaction, so loading
        a million-row relation costs one commit.  Sequence numbers stay
        monotone in iteration order; a duplicate (ignored) row still
        consumes one, leaving a gap — harmless, because the semi-naive
        watermark is a snapshot of ``current_seq()``, never row arithmetic
        (see :mod:`~repro.storage.sqlbackend.pushdown`).
        """
        batch: List[List[object]] = []
        for row in rows:
            values = self._ground_row(predicate, row)
            self._seq += 1
            values.append(self._seq)
            batch.append(values)
        if not batch:
            return 0
        self.create_relation(predicate)
        self._begin()
        before = self._connection.total_changes
        self._connection.executemany(self._insert_sql(predicate), batch)
        inserted = self._connection.total_changes - before
        self._counts[predicate.name] += inserted
        return inserted

    def add_atom(self, atom: Atom) -> bool:
        """Add *atom*; return ``True`` when it was not already present."""
        predicate = atom.predicate
        values = self._ground_row(predicate, atom.terms)
        self.create_relation(predicate)
        self._begin()
        values.append(self._seq + 1)
        cursor = self._connection.execute(self._insert_sql(predicate), values)
        if cursor.rowcount != 1:
            return False
        self._seq += 1
        self._counts[predicate.name] += 1
        return True

    def add_atoms(self, atoms: Iterable[Atom]) -> int:
        """Bulk-insert *atoms*, one :meth:`add_rows` call per run of one
        predicate; return how many were new."""
        added = 0
        run: List[Row] = []
        run_predicate: Optional[Predicate] = None
        for atom in atoms:
            predicate = atom.predicate
            if predicate is not run_predicate and predicate != run_predicate:
                if run_predicate is not None:
                    added += self.add_rows(run_predicate, run)
                run, run_predicate = [], predicate
            run.append(atom.terms)
        if run_predicate is not None:
            added += self.add_rows(run_predicate, run)
        return added

    def load_database(self, database: Database) -> int:
        """Bulk-load a :class:`~repro.core.instances.Database` in canonical
        order; return the new-row count."""
        return sum(
            self.add_rows(predicate, sorted(database.rows_matching(predicate), key=row_sort_key))
            for predicate in sorted(database.predicates())
        )

    # ------------------------------------------------------------------ #
    # AtomStore protocol: row queries

    def has_row(self, predicate: Predicate, row: Row) -> bool:
        """Return ``True`` when the row *row* over *predicate* is stored."""
        table = self._table_for(predicate)
        if table is None:
            return False
        columns = self._columns(predicate.arity)
        where = " AND ".join(f"{column} = ?" for column in columns)
        found = self._connection.execute(
            f"SELECT 1 FROM {table} WHERE {where} LIMIT 1", self._encode(row)
        ).fetchone()
        return found is not None

    def rows_matching(
        self, predicate: Predicate, bindings: Optional[Mapping[int, Term]] = None
    ) -> Collection[Row]:
        """Return the decoded rows over *predicate* matching positional *bindings*.

        Bound positions are pushed down as ``WHERE`` equalities over the
        encoded values; each bound position (beyond 0) lazily gets its
        covering index on first use.  ``None`` or empty *bindings* select
        the whole relation.
        """
        table = self._table_for(predicate)
        if table is None:
            return ()
        columns = self._columns(predicate.arity)
        conditions = []
        parameters: List[str] = []
        for position in sorted(bindings or ()):
            if not 0 <= position < predicate.arity:
                # Same semantics as the in-memory postings: a binding on a
                # position the predicate does not have matches nothing.
                return ()
            self._ensure_position_index(predicate, position)
            conditions.append(f"c{position} = ?")
            parameters.append(encode_term(bindings[position]))  # type: ignore[index]
        where = f" WHERE {' AND '.join(conditions)}" if conditions else ""
        found = self._connection.execute(
            f"SELECT {', '.join(columns)} FROM {table}{where}", parameters
        ).fetchall()
        return [self._decode(predicate, values) for values in found]

    # ------------------------------------------------------------------ #
    # AtomStore protocol: atom queries (the API edge)

    def has_atom(self, atom: Atom) -> bool:
        """Return ``True`` when *atom* is stored."""
        return self.has_row(atom.predicate, atom.terms)

    def iter_atoms(self) -> Iterator[Atom]:
        """Iterate over all stored atoms (no ordering guarantee)."""
        for predicate_name in sorted(self._predicates):
            predicate = self._predicates[predicate_name]
            yield from self.atoms_with_predicate(predicate)

    def atom_count(self) -> int:
        """Return the number of (distinct) stored atoms."""
        return sum(self._counts.values())

    def atoms_with_predicate(self, predicate: Predicate) -> Collection[Atom]:
        """Return the stored atoms over *predicate* (decoded scan)."""
        return self.atoms_matching(predicate)

    def atoms_matching(
        self, predicate: Predicate, bindings: Optional[Mapping[int, Term]] = None
    ) -> List[Atom]:
        """:meth:`rows_matching` as atoms."""
        return [Atom(predicate, row) for row in self.rows_matching(predicate, bindings)]

    def predicate_cardinality(self, predicate: Predicate) -> int:
        """Return the number of atoms over *predicate* (answered from the count cache)."""
        if self._table_for(predicate) is None:
            return 0
        return self._counts.get(predicate.name, 0)

    def predicates(self) -> List[Predicate]:
        """Return the predicates with at least one atom, sorted by name."""
        return [
            self._predicates[name]
            for name in sorted(self._predicates)
            if self._counts.get(name, 0) > 0
        ]

    def catalog_predicates(self) -> List[Predicate]:
        """Return every catalogued predicate (empty relations included)."""
        return [self._predicates[name] for name in sorted(self._predicates)]

    # ------------------------------------------------------------------ #
    # Conversion

    def to_instance(self) -> Instance:
        """Materialise the stored atoms (constants *and* nulls) as an :class:`Instance`."""
        instance = Instance()
        for predicate in self.predicates():
            instance.add_rows(predicate, self.rows_matching(predicate))
        return instance

    @classmethod
    def from_database(
        cls, database: Database, path: str = MEMORY_PATH, name: str = "sqlite"
    ) -> "SqliteAtomStore":
        """Build a store from a fact set (batched load)."""
        store = cls(path=path, name=name)
        store.load_database(database)
        return store

