"""Unit tests for the relational storage substrate (relations, store, catalog, views)."""

import pytest

from repro.core.atoms import Atom
from repro.core.parser import parse_database
from repro.core.predicates import Predicate
from repro.core.terms import Constant
from repro.exceptions import StorageError, UnknownRelationError
from repro.storage.database import RelationalDatabase
from repro.storage.relation import Relation
from repro.storage.views import PrefixView

R = Predicate("R", 2)
S = Predicate("S", 1)


class TestRelation:
    def test_insert_and_scan(self):
        relation = Relation(R)
        relation.insert(("a", "b"))
        relation.insert_many([("b", "c"), ("c", "d")])
        assert len(relation) == 3
        assert list(relation.rows(limit=2)) == [("a", "b"), ("b", "c")]

    def test_arity_checked(self):
        with pytest.raises(StorageError):
            Relation(R).insert(("a",))

    def test_values_are_stringified(self):
        relation = Relation(R)
        relation.insert((1, 2))
        assert list(relation)[0] == ("1", "2")

    def test_insert_atom(self):
        relation = Relation(R)
        relation.insert_atom(Atom(R, (Constant("a"), Constant("b"))))
        assert list(relation.atoms()) == [Atom(R, (Constant("a"), Constant("b")))]
        with pytest.raises(StorageError):
            relation.insert_atom(Atom(S, (Constant("a"),)))

    def test_chunked_scan(self):
        relation = Relation(S)
        relation.insert_many([(str(i),) for i in range(10)])
        chunks = list(relation.chunks(4))
        assert [len(chunk) for chunk in chunks] == [4, 4, 2]
        assert list(relation.chunks(4, limit=5))[-1] == [("4",)]
        with pytest.raises(StorageError):
            list(relation.chunks(0))
        relation.chunks(0)  # the check is lazy: raised on the first step, not the call

    def test_chunks_are_copies_of_row_log_slices(self):
        relation = Relation(S)
        relation.insert_many([(str(i),) for i in range(5)])
        assert list(relation.chunks(2)) == [[("0",), ("1",)], [("2",), ("3",)], [("4",)]]
        assert list(relation.chunks(2, limit=3)) == [[("0",), ("1",)], [("2",)]]
        assert list(relation.chunks(9, limit=0)) == list(Relation(S).chunks(3)) == []
        (whole,) = relation.chunks(5)
        whole.clear()
        assert len(relation) == 5

    def test_rows_from_an_offset(self):
        relation = Relation(S)
        relation.insert_many([(str(i),) for i in range(5)])
        assert list(relation.rows(start=3)) == [("3",), ("4",)]
        assert list(relation.rows(limit=4, start=2)) == [("2",), ("3",)]
        assert list(relation.rows(limit=2, start=2)) == list(relation.rows(start=9)) == []
        assert next(relation.rows()) == ("0",)

    def test_is_empty(self):
        assert Relation(R).is_empty()


class TestRelationalDatabase:
    def _store(self):
        store = RelationalDatabase("test")
        store.create_relation(R)
        store.create_relation(S)
        store.insert("R", ("a", "b"))
        store.insert("R", ("b", "b"))
        return store

    def test_create_is_idempotent_and_checks_arity(self):
        store = self._store()
        assert store.create_relation(R) is store.relation("R")
        with pytest.raises(StorageError):
            store.create_relation(Predicate("R", 3))

    def test_unknown_relation(self):
        with pytest.raises(UnknownRelationError):
            self._store().relation("T")
        with pytest.raises(UnknownRelationError):
            self._store().insert("T", ("a",))

    def test_catalog_reports_only_non_empty_relations(self):
        store = self._store()
        assert store.non_empty_predicates() == [R]
        assert set(store.relation_names()) == {"R", "S"}

    def test_counts(self):
        store = self._store()
        assert store.total_rows() == 2
        assert store.row_counts() == {"R": 2, "S": 0}

    def test_round_trip_with_core_database(self):
        database = parse_database("R(a,b).\nS(c).")
        store = RelationalDatabase.from_database(database)
        assert store.total_rows() == 2
        assert store.to_database() == database

    def test_insert_atom_creates_relation_on_demand(self):
        store = RelationalDatabase()
        store.insert_atom(Atom(R, (Constant("a"), Constant("b"))))
        assert "R" in store

    def test_drop_relation(self):
        store = self._store()
        store.drop_relation("R")
        assert "R" not in store
        store.drop_relation("R")  # idempotent


class TestPrefixView:
    def _store(self):
        store = RelationalDatabase("base")
        store.create_relation(R)
        store.create_relation(S)
        for index in range(10):
            store.insert("R", (f"a{index}", f"b{index}"))
        store.insert("S", ("s0",))
        return store

    def test_limits_rows_per_relation(self):
        view = PrefixView(self._store(), 3)
        assert view.total_rows() == 4  # 3 from R, 1 from S
        assert len(view.relation("R")) == 3
        assert view.row_counts()["R"] == 3

    def test_view_does_not_copy_or_mutate(self):
        store = self._store()
        view = PrefixView(store, 2)
        assert store.total_rows() == 11
        assert view.total_rows() == 3

    def test_catalog_respects_the_prefix(self):
        store = self._store()
        view = PrefixView(store, 0)
        assert view.non_empty_predicates() == []

    def test_to_database(self):
        view = PrefixView(self._store(), 1)
        database = view.to_database()
        assert len(database) == 2

    def test_predicate_restriction(self):
        view = PrefixView(self._store(), 5, predicates={"R"})
        assert view.relation_names() == ["R"]
        assert view.total_rows() == 5
        with pytest.raises(KeyError):
            view.relation("S")

    def test_restricted_to_builder(self):
        view = PrefixView(self._store(), 5).restricted_to([R])
        assert view.relation_names() == ["R"]
        assert len(view.schema()) == 1

    def test_relation_view_rows_from_an_offset(self):
        view = PrefixView(self._store(), 2).relation("R")
        rows = list(view.rows())
        assert len(rows) == 2
        assert list(view.rows(start=1)) == rows[1:]
        assert list(view.rows(limit=9, start=1)) == rows[1:]
        assert list(view.rows(limit=1, start=1)) == []

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            PrefixView(self._store(), -1)
