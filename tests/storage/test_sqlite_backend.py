"""The SQL substrate beyond the store contract: persistence, pushdown, wiring.

The protocol-compliance tests live in ``test_store_contract.py``; this
module covers what is *specific* to the SQLite backend — files that survive
the process and resume a chase, seq-gap and budget behaviour of chases into
the store, the pushed-down ``FindShapes``, and the backend-spec parsing the CLI leans on.
"""

import os

import pytest

from repro.chase.engine import chase, make_backend_store
from repro.chase.matching import make_trigger_source
from repro.chase.parallel import parallel_chase
from repro.chase.result import ChaseLimits
from repro.core.atoms import Atom
from repro.core.instances import Database, Instance
from repro.core.parser import parse_database, parse_rules
from repro.core.predicates import Predicate
from repro.core.terms import Constant, Null
from repro.exceptions import StorageError
from repro.simplification.shapes import Shape
from repro.storage.database import RelationalDatabase
from repro.storage.shape_finder import InDatabaseShapeFinder
from repro.storage.sqlbackend import (
    SqliteAtomStore,
    SqliteOverlayStore,
    SqliteShapeFinder,
    shape_query_sqlite,
)
from repro.termination.linear import is_chase_finite_l
from tests.helpers import chase_result_fingerprint as fingerprint

R = Predicate("R", 2)

RULES = "R(x,y) -> S(y,z)\nS(x,y), R(z,x) -> T(z,y)\n"
FACTS = "R(a,b).\nR(b,a).\nR(b,c).\n"


def _program():
    return parse_database(FACTS), parse_rules(RULES)


class TestBackendSpecs:
    def test_known_backends(self, tmp_path):
        assert isinstance(make_backend_store("instance"), Instance)
        assert isinstance(make_backend_store("relational"), RelationalDatabase)
        memory = make_backend_store("sqlite")
        assert isinstance(memory, SqliteAtomStore) and not memory.is_persistent
        path = str(tmp_path / "chase.db")
        persistent = make_backend_store(f"sqlite:{path}")
        assert persistent.is_persistent and persistent.path == path

    def test_unknown_backend_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown chase backend"):
            make_backend_store("oracle")

    def test_malformed_sqlite_spec_raises_value_error(self):
        with pytest.raises(ValueError, match="malformed sqlite backend spec"):
            make_backend_store("sqlite:")

    def test_unopenable_path_raises_storage_error(self, tmp_path):
        with pytest.raises(StorageError, match="cannot open sqlite database"):
            SqliteAtomStore(path=str(tmp_path / "no" / "such" / "dir.db"))

    def test_non_database_file_raises_storage_error(self, tmp_path):
        # connect() is lazy, so a corrupt/non-database file only fails at
        # the first statement — that failure must share the StorageError
        # contract (and hence the CLI's one-line exit 2).
        bogus = tmp_path / "not-a-db.db"
        bogus.write_text("definitely not an sqlite file")
        with pytest.raises(StorageError, match="cannot open sqlite database"):
            SqliteAtomStore(path=str(bogus))

    def test_arity_conflict_is_rejected(self):
        store = SqliteAtomStore()
        store.add_atom(Atom(R, (Constant("a"), Constant("b"))))
        with pytest.raises(StorageError, match="already exists with arity"):
            store.create_relation(Predicate("R", 3))

    def test_case_sensitive_predicate_names_get_distinct_tables(self):
        # SQLite table names are case-insensitive, so without case-escaping
        # FOO/2 and Foo/2 would silently share one table (and Foo/3 would
        # crash on a missing column) — the in-memory backends keep them
        # distinct, and conformance demands the sqlite store does too.
        store = SqliteAtomStore()
        upper = Atom(Predicate("FOO", 2), (Constant("a"), Constant("b")))
        mixed = Atom(Predicate("Foo", 2), (Constant("x"), Constant("y")))
        caret = Atom(Predicate("^foo", 2), (Constant("p"), Constant("q")))
        for atom in (upper, mixed, caret):
            assert store.add_atom(atom)
        assert set(store.iter_atoms()) == {upper, mixed, caret}
        assert list(store.atoms_with_predicate(Predicate("FOO", 2))) == [upper]
        assert list(store.atoms_with_predicate(Predicate("Foo", 2))) == [mixed]
        # Differing arities under a case-folded name stay independent too.
        wide = Atom(Predicate("Bar", 3), tuple(Constant(c) for c in "abc"))
        store.add_atom(Atom(Predicate("BAR", 2), (Constant("a"), Constant("b"))))
        assert store.add_atom(wide)
        assert store.has_atom(wide)
        # Bound lookups (lazily indexed) respect the case split as well.
        assert list(store.atoms_matching(Predicate("Foo", 2), {1: Constant("y")})) == [mixed]
        assert list(store.atoms_matching(Predicate("FOO", 2), {1: Constant("y")})) == []


class TestPersistence:
    def test_reopened_file_restores_catalog_and_atoms(self, tmp_path):
        path = str(tmp_path / "atoms.db")
        atoms = {
            Atom(R, (Constant("a"), Null("n1"))),
            Atom(R, (Constant("_:tricky"), Constant("b"))),
            Atom(Predicate("Flag", 0), ()),
        }
        with SqliteAtomStore(path=path) as store:
            for atom in atoms:
                store.add_atom(atom)
            seq = store.current_seq()
        with SqliteAtomStore(path=path) as reopened:
            assert set(reopened.iter_atoms()) == atoms
            assert reopened.atom_count() == len(atoms)
            assert reopened.current_seq() == seq
            assert {p.name for p in reopened.predicates()} == {"R", "Flag"}

    def test_file_size_reflects_committed_atoms(self, tmp_path):
        path = str(tmp_path / "size.db")
        with SqliteAtomStore(path=path) as store:
            assert store.file_size() > 0  # schema pages
            for i in range(500):
                store.add_atom(Atom(R, (Constant(f"a{i}"), Constant(f"b{i}"))))
            grown = store.file_size()
            assert grown > 4096
        assert os.path.getsize(path) == grown
        assert SqliteAtomStore().file_size() == 0  # in-memory stores have no file

    def test_chase_into_file_survives_the_store(self, tmp_path):
        database, tgds = _program()
        path = str(tmp_path / "chase.db")
        result = chase(database, tgds, store=make_backend_store(f"sqlite:{path}"))
        result.store.close()
        with SqliteAtomStore(path=path) as reopened:
            assert set(reopened.iter_atoms()) == set(result.instance.atoms())

    def test_interrupted_chase_resumes_from_persisted_atoms(self, tmp_path):
        """A chase over a reopened file continues from the persisted prefix
        and lands on the same instance as an uninterrupted fresh run —
        null names included (content-addressed NullFactory)."""
        database, tgds = _program()
        fresh = chase(database, tgds)
        assert fresh.terminated

        path = str(tmp_path / "resume.db")
        partial = chase(
            database,
            tgds,
            store=make_backend_store(f"sqlite:{path}"),
            limits=ChaseLimits(max_rounds=1),
        )
        assert not partial.terminated
        assert len(partial.instance) < len(fresh.instance)
        partial.store.close()

        resumed = chase(database, tgds, store=SqliteAtomStore(path=path))
        assert resumed.terminated
        assert sorted(map(str, resumed.instance)) == sorted(map(str, fresh.instance))
        resumed.store.close()
        # And the resumed fixpoint is what the file now holds.
        with SqliteAtomStore(path=path) as reopened:
            assert reopened.atom_count() == len(fresh.instance)

    def test_budget_raise_still_persists_the_prefix(self, tmp_path):
        # on_limit='raise' must not roll back the open transaction: the
        # interrupted prefix is exactly what makes the file resumable.
        from repro.exceptions import ChaseLimitExceeded

        database, tgds = _program()
        path = str(tmp_path / "raise.db")
        store = make_backend_store(f"sqlite:{path}")
        with pytest.raises(ChaseLimitExceeded):
            chase(
                database,
                tgds,
                store=store,
                limits=ChaseLimits(max_rounds=1),
                on_limit="raise",
            )
        store.close()
        with SqliteAtomStore(path=path) as reopened:
            assert reopened.atom_count() > 0  # seed + round-1 atoms survived
        resumed = chase(database, tgds, store=SqliteAtomStore(path=path))
        fresh = chase(database, tgds)
        assert sorted(map(str, resumed.instance)) == sorted(map(str, fresh.instance))
        resumed.store.close()


class TestChaseOnTheSqliteBackend:
    def test_unknown_strategy_is_a_value_error(self):
        _, tgds = _program()
        with pytest.raises(ValueError, match="unknown trigger strategy"):
            make_trigger_source(tuple(tgds), "psychic")

    def test_pushdown_under_an_atom_budget_stops_at_the_same_round(self):
        database, tgds = _program()
        limits = ChaseLimits(max_atoms=4)
        expected = fingerprint(chase(database, tgds, limits=limits))
        pushed = chase(database, tgds, strategy="sql-pushdown", backend="sqlite", limits=limits)
        assert fingerprint(pushed) == expected

    @pytest.mark.parametrize("variant", ["oblivious", "semi-oblivious", "restricted"])
    @pytest.mark.parametrize("strategy", ["indexed", "sql-pushdown"])
    def test_round_watermarks_survive_bulk_load_seq_gaps(self, strategy, variant):
        # add_atoms consumes a seq for every ignored duplicate row, so a store
        # loaded with repeats has gaps below and at the top of its sequence;
        # the round watermarks (and the restricted variant's round-start
        # snapshot) are readings of current_seq(), never row arithmetic, so
        # every genuinely new row must still count as delta.
        database, tgds = _program()
        expected = fingerprint(chase(database, tgds, variant=variant))
        atoms = sorted(database, key=str)
        store = SqliteAtomStore()
        store.add_atoms(atoms[:1])
        assert store.add_atoms(atoms + atoms[:2]) == len(atoms) - 1
        assert store.current_seq() > store.atom_count()
        result = chase(Database(), tgds, variant=variant, store=store, strategy=strategy)
        assert fingerprint(result) == expected
        store.close()

    def test_parallel_chase_on_sqlite_backend(self):
        database, tgds = _program()
        expected = fingerprint(chase(database, tgds))
        for executor in ("serial", "thread", "process"):
            result = parallel_chase(
                database, tgds, workers=2, backend="sqlite", executor=executor
            )
            assert fingerprint(result) == expected, executor
            assert isinstance(result.store, SqliteAtomStore)

    def test_thread_pool_over_a_committed_store(self, tmp_path):
        # A reopened (fully committed) store enters the thread pool with no
        # transaction open, so the worker threads' first lazy-index writes
        # race through _begin — the connection lock must serialise them.
        database, tgds = _program()
        expected = fingerprint(chase(database, tgds))
        path = str(tmp_path / "warm.db")
        with SqliteAtomStore.from_database(database, path=path) as store:
            store.flush()
        reopened = SqliteAtomStore(path=path)
        result = parallel_chase(
            Database(), tgds, workers=4, store=reopened, executor="thread"
        )
        assert fingerprint(result) == expected
        reopened.close()


class TestSqliteShapeFinder:
    DATA = "R(a,a).\nR(a,b).\nS(a,b,a).\nS(c,c,c).\nP(a).\n"

    def test_matches_the_in_database_finder_without_scanning_rows(self):
        database = parse_database(self.DATA)
        reference = InDatabaseShapeFinder(RelationalDatabase.from_database(database))
        pushed = SqliteShapeFinder(SqliteAtomStore.from_database(database))
        assert pushed.find_shapes() == reference.find_shapes()
        assert pushed.stats.rows_scanned == 0
        assert pushed.stats.queries_issued > 0

    def test_rejects_other_stores(self):
        with pytest.raises(TypeError, match="requires a SqliteAtomStore"):
            SqliteShapeFinder(RelationalDatabase())

    def test_rendered_query_shape(self):
        shape = Shape("R", (1, 1, 2))
        exact = shape_query_sqlite(shape)
        assert '"rel_^r"' in exact and "c0 = c1" in exact
        assert "!=" in exact
        relaxed = shape_query_sqlite(shape, relaxed=True)
        assert "!=" not in relaxed

    def test_feeds_is_chase_finite_l(self):
        database = parse_database(self.DATA)
        tgds = "R(x,y) -> S(y,x,z)\nS(x,y,z) -> P(y)\n"
        expected = is_chase_finite_l(database, tgds).finite
        finder = SqliteShapeFinder(SqliteAtomStore.from_database(database))
        assert is_chase_finite_l(finder, tgds).finite == expected

    def test_shapes_of_chased_store_include_null_identities(self):
        # Shapes are computed over the *encoded* rows, so a null equal to
        # itself in two columns is the same shape signal on every backend.
        database, tgds = _program()
        result = chase(database, tgds, backend="sqlite")
        pushed = SqliteShapeFinder(result.store).find_shapes()
        reference = InDatabaseShapeFinder(
            RelationalDatabase.from_database(result.instance)
        ).find_shapes()
        assert pushed == reference


class TestSqliteOverlayStore:
    """The read-only-attach overlay the out-of-core process workers run on."""

    def _base(self, tmp_path):
        path = str(tmp_path / "base.db")
        store = SqliteAtomStore(path=path, name="base")
        store.load_database(parse_database(FACTS))
        store.flush()
        return path, store

    def test_base_atoms_read_through_the_overlay(self, tmp_path):
        path, base = self._base(tmp_path)
        overlay = SqliteOverlayStore(path)
        assert overlay.atom_count() == base.atom_count()
        assert set(overlay.iter_atoms()) == set(base.iter_atoms())
        assert overlay.predicate_cardinality(R) == base.predicate_cardinality(R)
        assert set(overlay.atoms_matching(R, {0: Constant("b")})) == set(
            base.atoms_matching(R, {0: Constant("b")})
        )
        overlay.close()
        base.close()

    def test_overlay_writes_never_touch_the_base_file(self, tmp_path):
        path, base = self._base(tmp_path)
        seed_count = base.atom_count()
        overlay = SqliteOverlayStore(path)
        delta = Atom(R, (Constant("z"), Null("nz")))
        assert overlay.add_atom(delta)
        assert overlay.has_atom(delta)
        assert overlay.atom_count() == seed_count + 1
        # Unioned reads cover both sides of the same predicate.
        assert delta in set(overlay.atoms_with_predicate(R))
        assert len(set(overlay.atoms_with_predicate(R))) == seed_count + 1
        overlay.close()
        base.close()
        with SqliteAtomStore(path=path) as reopened:
            assert reopened.atom_count() == seed_count
            assert not reopened.has_atom(delta)

    def test_add_atom_deduplicates_against_the_base_snapshot(self, tmp_path):
        path, base = self._base(tmp_path)
        existing = next(iter(base.iter_atoms()))
        overlay = SqliteOverlayStore(path)
        assert not overlay.add_atom(existing)
        assert overlay.add_atoms([existing, Atom(R, (Constant("q"), Constant("r")))]) == 1
        assert overlay.atom_count() == base.atom_count() + 1
        overlay.close()
        base.close()

    def test_snapshot_isolation_from_coordinator_commits(self, tmp_path):
        # The coordinator keeps committing merged rounds to the file while
        # workers run; an overlay opened before those commits must not see
        # them (the replica semantics the deterministic merge relies on).
        path, base = self._base(tmp_path)
        overlay = SqliteOverlayStore(path)
        late = Atom(R, (Constant("late"), Constant("late")))
        base.add_atom(late)
        base.flush()
        assert not overlay.has_atom(late)
        assert late not in set(overlay.atoms_with_predicate(R))
        assert overlay.atom_count() == base.atom_count() - 1
        # ... but the overlay's own copy of the atom is a fresh delta.
        assert overlay.add_atom(late)
        assert overlay.has_atom(late)
        overlay.close()
        base.close()

    def test_partitions_cover_both_sides(self, tmp_path):
        path, base = self._base(tmp_path)
        overlay = SqliteOverlayStore(path)
        overlay.add_atom(Atom(R, (Constant("p"), Constant("q"))))
        everything = set(overlay.atoms_with_predicate(R))
        seen = []
        for index in range(3):
            seen.extend(overlay.atoms_partition(R, (0,), 3, index))
        assert set(seen) == everything
        assert len(seen) == len(everything)
        overlay.close()
        base.close()

    def test_missing_base_file_raises_storage_error(self, tmp_path):
        with pytest.raises(StorageError, match="cannot attach base"):
            SqliteOverlayStore(str(tmp_path / "nowhere" / "base.db"))

    def test_base_path_with_uri_metacharacters(self, tmp_path):
        # Regression: the read-only ATTACH goes through a file: URI, so a
        # literal '#', '?', '%', or space in the path must be
        # percent-encoded or SQLite attaches the wrong file.
        odd_dir = tmp_path / "odd dir#1 %x?y"
        odd_dir.mkdir()
        path = str(odd_dir / "base.db")
        store = SqliteAtomStore(path=path)
        store.load_database(parse_database(FACTS))
        store.flush()
        overlay = SqliteOverlayStore(path)
        assert overlay.atom_count() == store.atom_count()
        overlay.close()
        store.close()

    def test_parallel_process_chase_over_a_persistent_file_is_identical(self, tmp_path):
        # The end-to-end overlay path: process workers attach the
        # coordinator's file read-only, ship zero seed atoms, and the
        # ChaseResult stays byte-identical to the serial engine's.
        database, tgds = _program()
        expected = fingerprint(chase(database, tgds))
        for materialize in (True, False):
            store = make_backend_store(f"sqlite:{tmp_path / f'parallel-{materialize}.db'}")
            result = parallel_chase(
                database, tgds, workers=3, store=store, executor="process",
                materialize=materialize,
            )
            assert result.is_materialized == materialize
            assert fingerprint(result) == expected
            store.close()
