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
  crash loses at most the round in flight.  ``add_atoms`` bulk loads via
  ``executemany``.
* **Partitioned scans** — ``atoms_partition`` pushes the stable partition
  hash into SQLite through a registered deterministic SQL function, so the
  parallel executor's round-0 scans filter rows inside the database rather
  than decoding every atom in Python first.

Connection lifecycle: one connection per store, created with
``check_same_thread=False``.  A store-level ``RLock`` keeps one thread
inside SQLite at a time — the ``sqlite3`` module's own serialization is
not deadlock-safe once the Python ``repro_partition`` function is
registered (the UDF callback needs the GIL while SQLite holds the
connection mutex; another thread holding the GIL can enter SQLite's
statement-finalize paths and block on that mutex).  With the lock, the
thread pool of the parallel chase may share a store; process pools never
share — each worker opens its own replica (an in-memory rebuild from the
streamed seed, or a :class:`SqliteOverlayStore` attaching a persistent
file read-only), because connections are not picklable — which is exactly
why the parallel executor ships *work*, never stores.
"""

from __future__ import annotations

import os
import sqlite3
import threading
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
from urllib.parse import quote

from ...core.atoms import Atom
from ...core.indexing import partition_hash
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


def _partition_udf(n_partitions: int, *values: str) -> int:
    """The SQL-side partition function: stable hash of encoded key values.

    Values arrive encoded (``_:``-prefixed nulls), so decoding restores the
    exact term identity :func:`~repro.core.indexing.partition_hash` hashes —
    every store, SQL or in-memory, agrees on ownership.
    """
    terms = tuple(decode_value(value) for value in values)
    return partition_hash(terms) % int(n_partitions)


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
    uri:
        Enable SQLite URI filename interpretation on the connection.  Not
        needed for plain paths; :class:`SqliteOverlayStore` uses it so its
        read-only ``ATTACH 'file:…?mode=ro'`` is honoured.
    """

    def __init__(self, path: str = MEMORY_PATH, name: str = "sqlite", uri: bool = False) -> None:
        self.name = name
        self.path = path
        try:
            self._connection = sqlite3.connect(
                path, check_same_thread=False, isolation_level=None, uri=uri
            )
        except sqlite3.Error as error:
            raise StorageError(
                f"cannot open sqlite database at {path!r}: {error}"
            ) from None
        self._closed = False
        self._in_transaction = False
        # One thread inside SQLite at a time.  The sqlite3 module's own
        # serialization is NOT enough once a Python-defined SQL function is
        # registered: a thread executing `repro_partition` holds the
        # connection mutex and needs the GIL for the callback, while another
        # thread holding the GIL can enter SQLite C code (statement
        # finalize/reset paths run without releasing the GIL) and block on
        # that same mutex — a lock-order inversion that intermittently
        # deadlocked parallel-chase thread pools sharing one store.  The
        # RLock also guards the check-then-BEGIN/commit pair.
        self._connection_lock = threading.RLock()
        self._connection.create_function(
            "repro_partition", -1, _partition_udf, deterministic=True
        )
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
        """The underlying connection — a *setup-time* escape hatch only.

        UDF registration (``repro_skolem``) and pragma tuning need the raw
        connection before the store is shared across threads.  Runtime
        statement execution must go through :meth:`query` /
        :meth:`bulk_apply`, which serialize on the connection lock.
        """
        # reprolint: disable=lock-discipline -- setup-time escape hatch: UDF registration and pragmas run before the store is shared across threads; every runtime read/write goes through query()/bulk_apply(), which lock
        return self._connection

    def _load_catalog(self) -> None:
        with self._connection_lock:
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
        with self._connection_lock:
            if not self._in_transaction:
                self._connection.execute("BEGIN")
                self._in_transaction = True

    def flush(self) -> None:
        """Commit the open write transaction (durability point for files)."""
        with self._connection_lock:
            if self._in_transaction:
                self._connection.commit()
                self._in_transaction = False

    def close(self) -> None:
        """Commit and close the connection; the store is unusable afterwards."""
        if self._closed:
            return
        self.flush()
        with self._connection_lock:
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
        with self._connection_lock:
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

    def read_source(self, predicate: Predicate) -> str:
        """Return the SQL source reading *predicate*'s relation.

        For a plain store this is simply the quoted table name; the overlay
        store overrides it with a two-schema union subquery.  Compiled
        pushdown statements must reference relations through this hook —
        a bare table name silently resolves against the wrong schema on an
        overlay (SQLite resolves unqualified names temp → main → attached,
        so a ``main`` delta table would shadow the attached base relation).
        The relation must already exist (:meth:`create_relation`).
        """
        return _quote(table_name(predicate.name))

    def insert_guard(self, predicate: Predicate, value_exprs: Sequence[str]) -> str:
        """Extra ``WHERE`` fragment deduplicating compiled inserts.

        *value_exprs* are the SQL expressions producing the row's value
        columns in the inserting ``SELECT``.  A plain store needs no guard
        (the per-relation ``UNIQUE`` index plus ``INSERT OR IGNORE``
        already dedups); the overlay store returns a ``NOT EXISTS``
        anti-join against the read-only base snapshot, whose rows the
        ``main``-side unique index cannot see.
        """
        return ""

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
        """Run one read statement under the connection lock; fetch all rows.

        The entry point for compiled pushdown reads (trigger-witness
        enumeration, ``EXPLAIN QUERY PLAN`` introspection): callers never
        touch the connection directly, so the one-thread-in-SQLite
        invariant of the store holds for them too.  *family* names the
        compiled statement family for the attached metrics (ignored when
        detached).
        """
        metrics = self._statement_metrics
        if metrics is not None and family is not None:
            started = metrics.start()
            with self._connection_lock:
                rows = self._connection.execute(sql, parameters).fetchall()
            metrics.record(family, started, rows_read=len(rows))
            return rows
        with self._connection_lock:
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
            changed = self._bulk_apply_locked(sql, parameters, predicate)
            metrics.record(family, started, rows_changed=changed)
            return changed
        return self._bulk_apply_locked(sql, parameters, predicate)

    def _bulk_apply_locked(
        self,
        sql: str,
        parameters: Union[Sequence[object], Mapping[str, object]],
        predicate: Optional[Predicate],
    ) -> int:
        with self._connection_lock:
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
        with self._connection_lock:
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
        with self._connection_lock:
            self._begin()
            self._connection.execute(
                f"CREATE INDEX IF NOT EXISTS {index} ON {table} (c{position})"
            )
            self._indexed.add((predicate.name, position))

    # ------------------------------------------------------------------ #
    # Row encoding

    @staticmethod
    def _encode(atom: Atom) -> Tuple[str, ...]:
        if not atom.terms:
            return ("0",)  # the nullary sentinel value
        return tuple(encode_term(term) for term in atom.terms)

    @staticmethod
    def _ground_row(atom: Atom) -> List[object]:
        """:meth:`_encode` for a write: one pass that also rejects variables."""
        row: List[object] = []
        for term in atom.terms:
            if not isinstance(term, (Constant, Null)):
                raise ValidationError(f"stores hold ground atoms only, got {atom!r}")
            row.append(encode_term(term))
        return row or ["0"]  # the nullary sentinel value

    @staticmethod
    def _decode(predicate: Predicate, row: Tuple[str, ...]) -> Atom:
        if predicate.arity == 0:
            return Atom(predicate, ())
        return Atom(predicate, tuple(decode_value(value) for value in row))

    # ------------------------------------------------------------------ #
    # AtomStore protocol: mutation

    def add_atom(self, atom: Atom) -> bool:
        """Add *atom*; return ``True`` when it was not already present."""
        row = self._ground_row(atom)
        self.create_relation(atom.predicate)
        table = _quote(table_name(atom.predicate.name))
        columns = self._columns(atom.predicate.arity)
        placeholders = ", ".join("?" for _ in columns)
        with self._connection_lock:
            self._begin()
            row.append(self._seq + 1)
            cursor = self._connection.execute(
                f"INSERT OR IGNORE INTO {table} ({', '.join(columns)}, seq) "
                f"VALUES ({placeholders}, ?)",
                row,
            )
            if cursor.rowcount != 1:
                return False
            self._seq += 1
            self._counts[atom.predicate.name] += 1
            return True

    def add_atoms(self, atoms: Iterable[Atom]) -> int:
        """Bulk-insert *atoms* (batched per predicate); return how many were new.

        The batch runs inside the store's open transaction, so loading a
        million-row database costs one commit.  Sequence numbers stay
        monotone in iteration order; a duplicate (ignored) row still
        consumes one, leaving a gap — harmless, because the semi-naive
        watermark is a snapshot of ``current_seq()``, never row arithmetic
        (see :mod:`~repro.storage.sqlbackend.pushdown`).
        """
        added = 0
        batch: List[List[object]] = []
        batch_predicate: Optional[Predicate] = None

        def flush_batch() -> int:
            nonlocal batch
            if not batch or batch_predicate is None:
                return 0
            table = _quote(table_name(batch_predicate.name))
            columns = self._columns(batch_predicate.arity)
            placeholders = ", ".join("?" for _ in columns)
            before = self._connection.total_changes
            self._connection.executemany(
                f"INSERT OR IGNORE INTO {table} ({', '.join(columns)}, seq) "
                f"VALUES ({placeholders}, ?)",
                batch,
            )
            inserted = self._connection.total_changes - before
            self._counts[batch_predicate.name] += inserted
            batch = []
            return inserted

        with self._connection_lock:
            self._begin()
            for atom in atoms:
                row = self._ground_row(atom)
                predicate = atom.predicate
                if predicate is not batch_predicate and predicate != batch_predicate:
                    added += flush_batch()
                    batch_predicate = predicate
                    self.create_relation(predicate)
                self._seq += 1
                row.append(self._seq)
                batch.append(row)
            added += flush_batch()
        return added

    def load_database(self, database: Database) -> int:
        """Bulk-load a :class:`~repro.core.instances.Database`; return the new-row count."""
        return self.add_atoms(database)

    # ------------------------------------------------------------------ #
    # AtomStore protocol: queries

    def has_atom(self, atom: Atom) -> bool:
        """Return ``True`` when *atom* is stored."""
        table = self._table_for(atom.predicate)
        if table is None:
            return False
        columns = self._columns(atom.predicate.arity)
        where = " AND ".join(f"{column} = ?" for column in columns)
        with self._connection_lock:
            row = self._connection.execute(
                f"SELECT 1 FROM {table} WHERE {where} LIMIT 1", self._encode(atom)
            ).fetchone()
        return row is not None

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
        table = self._table_for(predicate)
        if table is None:
            return ()
        columns = self._columns(predicate.arity)
        with self._connection_lock:
            rows = self._connection.execute(
                f"SELECT {', '.join(columns)} FROM {table}"
            ).fetchall()
        return [self._decode(predicate, row) for row in rows]

    def atoms_matching(
        self, predicate: Predicate, bindings: Optional[Mapping[int, Term]] = None
    ) -> Iterable[Atom]:
        """Return the atoms over *predicate* matching positional *bindings*.

        Bound positions are pushed down as ``WHERE`` equalities over the
        encoded values; each bound position (beyond 0) lazily gets its
        covering index on first use.
        """
        if not bindings:
            return self.atoms_with_predicate(predicate)
        table = self._table_for(predicate)
        if table is None:
            return ()
        columns = self._columns(predicate.arity)
        conditions = []
        parameters: List[str] = []
        for position in sorted(bindings):
            if not 0 <= position < predicate.arity:
                # Same semantics as the hash-index backends: a binding on a
                # position the predicate does not have matches nothing.
                return ()
            self._ensure_position_index(predicate, position)
            conditions.append(f"c{position} = ?")
            parameters.append(encode_term(bindings[position]))
        with self._connection_lock:
            rows = self._connection.execute(
                f"SELECT {', '.join(columns)} FROM {table} "
                f"WHERE {' AND '.join(conditions)}",
                parameters,
            ).fetchall()
        return [self._decode(predicate, row) for row in rows]

    def atoms_partition(
        self,
        predicate: Predicate,
        key_positions: Tuple[int, ...],
        n_partitions: int,
        partition_index: int,
    ) -> Iterator[Atom]:
        """Yield the atoms over *predicate* owned by one hash partition.

        The stable partition hash runs *inside* SQLite (a registered
        deterministic function over the encoded key columns), so non-owned
        rows are filtered before any Python-side decoding happens.
        """
        table = self._table_for(predicate)
        if table is None:
            return
        columns = self._columns(predicate.arity)
        if n_partitions <= 1:
            with self._connection_lock:
                rows = self._connection.execute(
                    f"SELECT {', '.join(columns)} FROM {table}"
                ).fetchall()
        else:
            if key_positions:
                key_columns = ", ".join(f"c{position}" for position in key_positions)
            elif predicate.arity == 0:
                key_columns = ""  # hash of the empty tuple
            else:
                key_columns = ", ".join(columns)
            hash_args = f"?, {key_columns}" if key_columns else "?"
            with self._connection_lock:
                rows = self._connection.execute(
                    f"SELECT {', '.join(columns)} FROM {table} "
                    f"WHERE repro_partition({hash_args}) = ?",
                    (n_partitions, partition_index),
                ).fetchall()
        for row in rows:
            yield self._decode(predicate, row)

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
        return Instance(self.iter_atoms())

    @classmethod
    def from_database(
        cls, database: Database, path: str = MEMORY_PATH, name: str = "sqlite"
    ) -> "SqliteAtomStore":
        """Build a store from a fact set (batched load)."""
        store = cls(path=path, name=name)
        store.load_database(database)
        return store


class SqliteOverlayStore(SqliteAtomStore):
    """A read-only attached base file with a private in-memory delta overlay.

    The parallel chase's process workers used to be seeded by pickling the
    coordinator's whole store into every replica.  For a *persistent*
    :class:`SqliteAtomStore` that is both slow and RAM-bound; this store is
    the out-of-core replacement: the worker ``ATTACH``-es the coordinator's
    file **read-only** (``file:<path>?mode=ro``) as schema ``base`` and
    keeps its private deltas in the in-memory ``main`` schema.  Reads union
    the two sides; writes only ever touch ``main`` — the base file cannot
    be modified through this store by construction.

    **Snapshot isolation.**  At open time the store records the base file's
    sequence watermark, and every base-side read carries ``seq <=
    snapshot``.  The coordinator keeps committing merged rounds to the same
    file while workers run (WAL allows the concurrent reader), but those
    later rows are invisible here: the overlay sees exactly the seed
    snapshot plus whatever the worker added itself — the same contents a
    pickled replica would hold, which is what keeps the parallel merge
    byte-identical to the serial chase.

    Position indexes are created on the ``main`` delta tables only (the
    base is read-only); base-side lookups lean on the indexes persisted in
    the file — the ``UNIQUE`` value index covers position 0.
    """

    def __init__(self, base_path: str, name: str = "sqlite-overlay") -> None:
        super().__init__(path=MEMORY_PATH, name=name, uri=True)
        self.base_path = base_path
        #: Predicates whose relation exists in the attached base file.
        self._base_predicates: Dict[str, Predicate] = {}
        #: Predicates with a delta table created in the in-memory schema.
        self._main_relations: Set[str] = set()
        self._base_snapshot_seq = 0
        try:
            # Percent-encode the path before embedding it in the URI: a
            # literal '#', '?', or '%' would otherwise be parsed as URI
            # structure and attach the wrong file.
            self._connection.execute(
                "ATTACH DATABASE ? AS base", (f"file:{quote(base_path)}?mode=ro",)
            )
            rows = self._connection.execute(
                f"SELECT name, arity FROM base.{CATALOG_TABLE} ORDER BY name"
            ).fetchall()
            for predicate_name, arity in rows:
                predicate = Predicate(predicate_name, arity)
                self._base_predicates[predicate_name] = predicate
                self._predicates[predicate_name] = predicate
                table = f"base.{_quote(table_name(predicate_name))}"
                count, top = self._connection.execute(
                    f"SELECT COUNT(*), COALESCE(MAX(seq), 0) FROM {table}"
                ).fetchone()
                self._counts[predicate_name] = count
                self._base_snapshot_seq = max(self._base_snapshot_seq, top)
        except sqlite3.Error as error:
            self._connection.close()
            self._closed = True
            raise StorageError(
                f"cannot attach base sqlite database at {base_path!r}: {error}"
            ) from None
        self._seq = max(self._seq, self._base_snapshot_seq)

    def __repr__(self) -> str:
        return (
            f"SqliteOverlayStore({self.name!r}, base={self.base_path}, "
            f"{self.atom_count()} atoms)"
        )

    # ------------------------------------------------------------------ #
    # Schema management (writes go to main only)

    def create_relation(self, predicate: Predicate) -> None:
        """Create (or validate) the in-memory delta table for *predicate*."""
        existing = self._predicates.get(predicate.name)
        if existing is not None and existing.arity != predicate.arity:
            raise StorageError(
                f"relation {predicate.name!r} already exists with arity "
                f"{existing.arity}, cannot recreate with arity {predicate.arity}"
            )
        if predicate.name in self._main_relations:
            return
        columns = self._columns(predicate.arity)
        column_ddl = ", ".join(f"{column} TEXT NOT NULL" for column in columns)
        unique = ", ".join(columns)
        table = table_name(predicate.name)
        with self._connection_lock:
            self._begin()
            self._connection.execute(
                f"CREATE TABLE IF NOT EXISTS main.{_quote(table)} "
                f"({column_ddl}, seq INTEGER NOT NULL, UNIQUE({unique}))"
            )
            self._connection.execute(
                f"CREATE INDEX IF NOT EXISTS main.{_quote(f'idx_{table}_seq')} "
                f"ON {_quote(table)} (seq)"
            )
            self._connection.execute(
                f"INSERT OR IGNORE INTO main.{CATALOG_TABLE} (name, arity) "
                "VALUES (?, ?)",
                (predicate.name, predicate.arity),
            )
            self._predicates[predicate.name] = predicate
            self._counts.setdefault(predicate.name, 0)
            self._main_relations.add(predicate.name)

    def _ensure_position_index(self, predicate: Predicate, position: int) -> None:
        # Only the main-side delta table can be indexed; the base file keeps
        # whatever indexes were persisted into it.  Not marking the pair in
        # ``_indexed`` when the delta table does not exist yet means the
        # index is created as soon as a delta over the predicate appears.
        if predicate.name not in self._main_relations:
            return
        if position == 0 or (predicate.name, position) in self._indexed:
            return
        table = table_name(predicate.name)
        index = _quote(f"idx_{table}_p{position}")
        with self._connection_lock:
            self._begin()
            self._connection.execute(
                f"CREATE INDEX IF NOT EXISTS main.{index} "
                f"ON {_quote(table)} (c{position})"
            )
            self._indexed.add((predicate.name, position))

    # ------------------------------------------------------------------ #
    # Compiled-statement entry points (two-schema variants)

    def read_source(self, predicate: Predicate) -> str:
        """The union of the base snapshot and the main delta, as one source.

        Compiled pushdown joins reference this as a derived table, so the
        semi-naive ``seq`` watermarks apply across both schemas: base rows
        keep their snapshot-bounded sequence numbers, delta rows continue
        above them (``__init__`` starts the overlay's watermark at the base
        snapshot).
        """
        table = _quote(table_name(predicate.name))
        columns = ", ".join(self._columns(predicate.arity) + ["seq"])
        in_base = predicate.name in self._base_predicates
        in_main = predicate.name in self._main_relations
        if in_base and in_main:
            return (
                f"(SELECT {columns} FROM base.{table} "
                f"WHERE seq <= {self._base_snapshot_seq} "
                f"UNION ALL SELECT {columns} FROM main.{table})"
            )
        if in_base:
            return (
                f"(SELECT {columns} FROM base.{table} "
                f"WHERE seq <= {self._base_snapshot_seq})"
            )
        return f"main.{table}"

    def insert_guard(self, predicate: Predicate, value_exprs: Sequence[str]) -> str:
        """Anti-join against the read-only base: writes only land in main,
        so the main-side ``UNIQUE`` index cannot see base rows — the same
        dedup :meth:`add_atom` does per-row, as one set-based clause."""
        if predicate.name not in self._base_predicates:
            return ""
        table = _quote(table_name(predicate.name))
        conditions = [
            f"b.{column} = {expression}"
            for column, expression in zip(self._columns(predicate.arity), value_exprs)
        ]
        conditions.append(f"b.seq <= {self._base_snapshot_seq}")
        return (
            f"NOT EXISTS (SELECT 1 FROM base.{table} AS b "
            f"WHERE {' AND '.join(conditions)})"
        )

    # ------------------------------------------------------------------ #
    # Read targets: the base snapshot plus the main delta

    def _read_targets(
        self, predicate: Predicate
    ) -> Iterator[Tuple[str, str, Tuple[object, ...]]]:
        """Yield ``(table, extra_where, extra_params)`` covering both sides."""
        existing = self._predicates.get(predicate.name)
        if existing is None or existing.arity != predicate.arity:
            return
        table = _quote(table_name(predicate.name))
        if predicate.name in self._base_predicates:
            yield f"base.{table}", "seq <= ?", (self._base_snapshot_seq,)
        if predicate.name in self._main_relations:
            yield f"main.{table}", "", ()

    def _base_has(self, atom: Atom) -> bool:
        if atom.predicate.name not in self._base_predicates:
            return False
        existing = self._base_predicates[atom.predicate.name]
        if existing.arity != atom.predicate.arity:
            return False
        table = f"base.{_quote(table_name(atom.predicate.name))}"
        columns = self._columns(atom.predicate.arity)
        where = " AND ".join(f"{column} = ?" for column in columns)
        with self._connection_lock:
            row = self._connection.execute(
                f"SELECT 1 FROM {table} WHERE {where} AND seq <= ? LIMIT 1",
                self._encode(atom) + (self._base_snapshot_seq,),
            ).fetchone()
        return row is not None

    # ------------------------------------------------------------------ #
    # AtomStore protocol: mutation (deduplicated against the base snapshot)

    def add_atom(self, atom: Atom) -> bool:
        if not atom.is_ground():
            raise ValidationError(f"stores hold ground atoms only, got {atom!r}")
        if self._base_has(atom):
            return False
        return super().add_atom(atom)

    def add_atoms(self, atoms: Iterable[Atom]) -> int:
        return super().add_atoms(
            atom
            for atom in atoms
            if not (atom.is_ground() and self._base_has(atom))
        )

    # ------------------------------------------------------------------ #
    # AtomStore protocol: queries (union of both sides)

    def has_atom(self, atom: Atom) -> bool:
        columns = self._columns(atom.predicate.arity)
        values = self._encode(atom)
        for table, extra, params in self._read_targets(atom.predicate):
            where = " AND ".join(f"{column} = ?" for column in columns)
            if extra:
                where = f"{where} AND {extra}"
            with self._connection_lock:
                row = self._connection.execute(
                    f"SELECT 1 FROM {table} WHERE {where} LIMIT 1", values + params
                ).fetchone()
            if row is not None:
                return True
        return False

    def atoms_with_predicate(self, predicate: Predicate) -> Collection[Atom]:
        columns = ", ".join(self._columns(predicate.arity))
        atoms: List[Atom] = []
        for table, extra, params in self._read_targets(predicate):
            sql = f"SELECT {columns} FROM {table}"
            if extra:
                sql = f"{sql} WHERE {extra}"
            with self._connection_lock:
                rows = self._connection.execute(sql, params).fetchall()
            atoms.extend(self._decode(predicate, row) for row in rows)
        return atoms

    def atoms_matching(
        self, predicate: Predicate, bindings: Optional[Mapping[int, Term]] = None
    ) -> Iterable[Atom]:
        if not bindings:
            return self.atoms_with_predicate(predicate)
        conditions = []
        parameters: List[str] = []
        for position in sorted(bindings):
            if not 0 <= position < predicate.arity:
                return ()
            self._ensure_position_index(predicate, position)
            conditions.append(f"c{position} = ?")
            parameters.append(encode_term(bindings[position]))
        columns = ", ".join(self._columns(predicate.arity))
        atoms: List[Atom] = []
        for table, extra, params in self._read_targets(predicate):
            where = " AND ".join(conditions)
            if extra:
                where = f"{where} AND {extra}"
            with self._connection_lock:
                rows = self._connection.execute(
                    f"SELECT {columns} FROM {table} WHERE {where}",
                    tuple(parameters) + params,
                ).fetchall()
            atoms.extend(self._decode(predicate, row) for row in rows)
        return atoms

    def atoms_partition(
        self,
        predicate: Predicate,
        key_positions: Tuple[int, ...],
        n_partitions: int,
        partition_index: int,
    ) -> Iterator[Atom]:
        column_names = self._columns(predicate.arity)
        columns = ", ".join(column_names)
        if key_positions:
            key_columns = ", ".join(f"c{position}" for position in key_positions)
        elif predicate.arity == 0:
            key_columns = ""  # hash of the empty tuple
        else:
            key_columns = ", ".join(column_names)
        hash_args = f"?, {key_columns}" if key_columns else "?"
        for table, extra, params in self._read_targets(predicate):
            if n_partitions <= 1:
                sql = f"SELECT {columns} FROM {table}"
                if extra:
                    sql = f"{sql} WHERE {extra}"
                with self._connection_lock:
                    rows = self._connection.execute(sql, params).fetchall()
            else:
                where = f"repro_partition({hash_args}) = ?"
                if extra:
                    where = f"{where} AND {extra}"
                with self._connection_lock:
                    rows = self._connection.execute(
                        f"SELECT {columns} FROM {table} WHERE {where}",
                        (n_partitions, partition_index) + params,
                    ).fetchall()
            for row in rows:
                yield self._decode(predicate, row)
