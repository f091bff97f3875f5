"""Unit and property tests for shape queries and the two FindShapes implementations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predicates import Predicate
from repro.exceptions import StorageError
from repro.simplification.shapes import (
    Shape,
    identifier_tuple,
    identifier_tuples_of_arity,
    shapes_of_database,
)
from repro.storage.database import RelationalDatabase
from repro.storage.queries import (
    disequality_condition_pairs,
    equality_condition_pairs,
    row_matches_shape,
    shape_exists,
    shape_query_sql,
)
from repro.storage.shape_finder import (
    DeltaShapeFinder,
    InDatabaseShapeFinder,
    InMemoryShapeFinder,
)
from repro.storage.views import PrefixView


class TestShapeQueries:
    def test_condition_pairs(self):
        shape = Shape("R", (1, 1, 2))
        assert equality_condition_pairs(shape) == [(1, 2)]
        assert disequality_condition_pairs(shape) == [(1, 3), (2, 3)]

    def test_row_matches_shape_exact(self):
        shape = Shape("R", (1, 1, 2))
        assert row_matches_shape(("a", "a", "b"), shape)
        assert not row_matches_shape(("a", "b", "b"), shape)
        assert not row_matches_shape(("a", "a", "a"), shape)

    def test_row_matches_shape_relaxed(self):
        shape = Shape("R", (1, 1, 2))
        # Relaxed keeps only the equality conditions, so (a,a,a) qualifies.
        assert row_matches_shape(("a", "a", "a"), shape, relaxed=True)
        assert not row_matches_shape(("a", "b", "a"), shape, relaxed=True)

    def test_arity_mismatch_never_matches(self):
        assert not row_matches_shape(("a", "b"), Shape("R", (1, 1, 2)))

    def test_shape_exists(self):
        rows = [("a", "b", "c"), ("a", "a", "c")]
        assert shape_exists(rows, Shape("R", (1, 1, 2)))
        assert not shape_exists(rows, Shape("R", (1, 1, 1)))

    def test_sql_rendering_matches_paper_example(self):
        sql = shape_query_sql(Shape("R", (1, 1, 2)))
        assert "a1=a2" in sql and "a2!=a3" in sql and "FROM R" in sql
        relaxed = shape_query_sql(Shape("R", (1, 1, 2)), relaxed=True)
        assert "!=" not in relaxed

    @given(
        st.lists(st.tuples(*[st.sampled_from("abc")] * 3), min_size=0, max_size=8),
        st.sampled_from([(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3)]),
    )
    def test_exists_agrees_with_identifier_computation(self, rows, identifiers):
        shape = Shape("R", identifiers)
        expected = any(identifier_tuple(row) == identifiers for row in rows)
        assert shape_exists(rows, shape) == expected

    @given(
        st.lists(st.sampled_from("abc"), max_size=4),
        st.integers(0, 4).flatmap(lambda n: st.sampled_from(list(identifier_tuples_of_arity(n)))),
        st.booleans(),
    )
    def test_truth_table_is_the_pairwise_definition(self, row, identifiers, relaxed):
        # Section 5.4 literally: every forced equality holds and, unless
        # relaxed, every forced disequality too.
        shape = Shape("R", identifiers)
        expected = len(row) == len(identifiers) and all(
            row[i - 1] == row[j - 1] for i, j in equality_condition_pairs(shape)
        ) and (relaxed or all(
            row[i - 1] != row[j - 1] for i, j in disequality_condition_pairs(shape)
        ))
        assert row_matches_shape(row, shape, relaxed=relaxed) == expected
        assert shape_exists([tuple(row)], shape, relaxed=relaxed) == expected
        assert not shape_exists([], shape, relaxed=relaxed)


def _store_from_rows(rows_by_relation):
    store = RelationalDatabase()
    for (name, arity), rows in rows_by_relation.items():
        relation = store.create_relation(Predicate(name, arity))
        relation.insert_many(rows)
    return store


class TestShapeFinders:
    def _example_store(self):
        return _store_from_rows(
            {
                ("R", 3): [("a", "a", "b"), ("a", "b", "c"), ("d", "d", "d")],
                ("S", 2): [("a", "a")],
                ("T", 1): [],
            }
        )

    def test_in_memory_finds_all_shapes(self):
        shapes = InMemoryShapeFinder(self._example_store()).find_shapes()
        assert shapes == {
            Shape("R", (1, 1, 2)),
            Shape("R", (1, 2, 3)),
            Shape("R", (1, 1, 1)),
            Shape("S", (1, 1)),
        }

    def test_in_database_finds_all_shapes(self):
        finder = InDatabaseShapeFinder(self._example_store())
        shapes = finder.find_shapes()
        assert shapes == InMemoryShapeFinder(self._example_store()).find_shapes()
        assert finder.stats.queries_issued > 0

    def test_apriori_pruning_skips_queries(self):
        # A relation where no two columns are ever equal: every shape with an
        # equality condition fails its relaxed query, so the refining shapes
        # are pruned without being queried.
        store = _store_from_rows({("R", 3): [("a", "b", "c"), ("d", "e", "f")]})
        finder = InDatabaseShapeFinder(store)
        shapes = finder.find_shapes()
        assert shapes == {Shape("R", (1, 2, 3))}
        assert finder.stats.shapes_pruned > 0

    def test_in_memory_chunked_matches_unchunked(self):
        store = self._example_store()
        assert (
            InMemoryShapeFinder(store, chunk_size=2).find_shapes()
            == InMemoryShapeFinder(store).find_shapes()
        )

    def test_counters(self):
        store = self._example_store()
        finder = InMemoryShapeFinder(store)
        finder.find_shapes()
        assert finder.stats.rows_scanned == 4
        assert finder.stats.shapes_found == 4

    def test_in_memory_and_in_database_agree(self):
        store = self._example_store()
        in_memory = InMemoryShapeFinder(store).find_shapes()
        assert in_memory == InDatabaseShapeFinder(store).find_shapes()

    def test_works_on_prefix_views(self):
        store = self._example_store()
        view = PrefixView(store, 1)
        shapes = InMemoryShapeFinder(view).find_shapes()
        assert shapes == {Shape("R", (1, 1, 2)), Shape("S", (1, 1))}
        assert InDatabaseShapeFinder(view).find_shapes() == shapes

    def test_agrees_with_core_database_shapes(self):
        store = self._example_store()
        assert InMemoryShapeFinder(store).find_shapes() == shapes_of_database(store.to_database())

    @given(
        st.dictionaries(
            st.tuples(st.sampled_from(["R", "S"]), st.integers(min_value=1, max_value=3)),
            st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=3), max_size=6),
            max_size=2,
        )
    )
    @settings(max_examples=30)
    def test_both_implementations_always_agree(self, raw):
        rows_by_relation = {}
        for (name, arity), rows in raw.items():
            if (name, arity) in rows_by_relation or any(r[0] == name for r in rows_by_relation):
                continue
            rows_by_relation[(name, arity)] = [tuple((row * arity)[:arity]) for row in rows]
        store = _store_from_rows(rows_by_relation)
        in_memory = InMemoryShapeFinder(store).find_shapes()
        assert in_memory == InDatabaseShapeFinder(store).find_shapes()

    def test_nullary_relation_shapes(self):
        store = _store_from_rows({("Flag", 0): [()], ("Empty", 0): []})
        expected = {Shape("Flag", ())}
        assert InMemoryShapeFinder(store).find_shapes() == expected
        assert InDatabaseShapeFinder(store).find_shapes() == expected
        assert DeltaShapeFinder(store).find_shapes() == expected


class TestShapeFinderStats:
    """Regression tests locking in the counter semantics (per-call, no double counts)."""

    def _store(self):
        return _store_from_rows(
            {
                ("R", 3): [("a", "a", "b"), ("a", "b", "c"), ("d", "d", "d")],
                ("S", 2): [("a", "a")],
            }
        )

    def test_chunked_iteration_does_not_double_count(self):
        store = self._store()
        unchunked = InMemoryShapeFinder(store)
        unchunked.find_shapes()
        for chunk_size in (1, 2, 10):
            chunked = InMemoryShapeFinder(store, chunk_size=chunk_size)
            chunked.find_shapes()
            assert chunked.stats.rows_scanned == unchunked.stats.rows_scanned == 4
            assert chunked.stats.shapes_found == unchunked.stats.shapes_found == 4

    def test_nonpositive_chunk_size_is_rejected_at_construction(self):
        for chunk_size in (0, -3):
            with pytest.raises(StorageError, match="chunk_size must be positive"):
                InMemoryShapeFinder(self._store(), chunk_size=chunk_size)

    def test_low_arity_relations_are_counted_not_scanned(self):
        store = _store_from_rows({("N", 0): [(), ()], ("P", 1): [("a",), ("a",), ("b",)],
                                  ("E", 1): [], ("Z", 0): []})
        for chunk_size in (None, 2):
            finder = InMemoryShapeFinder(store, chunk_size=chunk_size)
            assert finder.find_shapes() == {Shape("N", ()), Shape("P", (1,))}
            assert finder.stats.rows_scanned == 5

    def test_in_database_counters_are_pinned(self):
        # Enumeration order, Apriori pruning and all four counters, as counted
        # by the per-row interpreter this query layer replaced.
        store = _store_from_rows(
            {
                ("R", 4): [("a", "a", "b", "b"), ("a", "b", "c", "d"),
                           ("a", "b", "a", "b"), ("c", "c", "c", "d")],
                ("S", 3): [("a", "b", "c"), ("d", "e", "f")],
                ("T", 1): [("x",)],
                ("U", 0): [],
                ("V", 5): [("a", "a", "a", "a", "a"), ("a", "b", "b", "a", "c")],
            }
        )
        finder = InDatabaseShapeFinder(store)
        assert finder.find_shapes() == InMemoryShapeFinder(store).find_shapes()
        stats = finder.stats
        assert (stats.queries_issued, stats.relaxed_queries_issued,
                stats.shapes_pruned, stats.shapes_found, stats.rows_scanned) == (143, 79, 10, 8, 0)

    def test_repeated_calls_reset_counters(self):
        finder = InMemoryShapeFinder(self._store())
        stats = finder.stats  # held reference must stay valid across calls
        finder.find_shapes()
        finder.find_shapes()
        assert stats is finder.stats
        assert stats.rows_scanned == 4
        assert stats.shapes_found == 4

    def test_in_database_repeated_calls_reset_counters(self):
        finder = InDatabaseShapeFinder(self._store())
        finder.find_shapes()
        first = (finder.stats.queries_issued, finder.stats.relaxed_queries_issued)
        finder.find_shapes()
        assert (finder.stats.queries_issued, finder.stats.relaxed_queries_issued) == first

    def test_relaxed_queries_count_toward_queries_issued(self):
        # S/2 with one tuple (a,a): the relaxed pair query for (1,2), the
        # exact query for shape (1,2), then the relaxed + exact queries for
        # shape (1,1).  Every one of the four is a query issued against the
        # store, so queries_issued counts them all; relaxed_queries_issued
        # is the relaxed subset.
        store = _store_from_rows({("S", 2): [("a", "a")]})
        finder = InDatabaseShapeFinder(store)
        finder.find_shapes()
        assert finder.stats.relaxed_queries_issued == 2
        assert finder.stats.queries_issued == 4
        assert finder.stats.queries_issued >= finder.stats.relaxed_queries_issued


class TestDeltaShapeFinder:
    def _ladder_store(self):
        return _store_from_rows(
            {
                ("R", 3): [
                    ("a", "b", "c"),
                    ("a", "a", "b"),
                    ("d", "d", "d"),
                    ("a", "b", "a"),
                ],
                ("S", 2): [("a", "b"), ("a", "a")],
                ("T", 1): [("x",)],
            }
        )

    def test_matches_in_memory_on_every_view(self):
        store = self._ladder_store()
        finder = DeltaShapeFinder(store)
        for limit in (1, 2, 3, 4):
            view = PrefixView(store, limit)
            assert finder.shapes_for(view) == InMemoryShapeFinder(view).find_shapes()

    def test_scans_only_delta_rows(self):
        store = self._ladder_store()
        finder = DeltaShapeFinder(store)
        finder.shapes_for(PrefixView(store, 2))
        assert finder.stats.rows_scanned == 5  # 2 + 2 + 1
        finder.shapes_for(PrefixView(store, 4))
        assert finder.stats.rows_scanned == 2  # only R grows past 2 rows

    def test_non_monotone_queries_answered_from_index(self):
        store = self._ladder_store()
        finder = DeltaShapeFinder(store)
        large = finder.shapes_for(PrefixView(store, 4))
        small = finder.shapes_for(PrefixView(store, 1))
        assert finder.stats.rows_scanned == 0  # no rescan for the smaller prefix
        assert small == InMemoryShapeFinder(PrefixView(store, 1)).find_shapes()
        assert small <= large

    def test_respects_predicate_restriction(self):
        store = self._ladder_store()
        finder = DeltaShapeFinder(store)
        view = PrefixView(store, 4, predicates=["R"])
        assert finder.shapes_for(view) == InMemoryShapeFinder(view).find_shapes()
        assert all(shape.predicate_name == "R" for shape in finder.shapes_for(view))

    def test_rejects_views_over_other_stores(self):
        finder = DeltaShapeFinder(self._ladder_store())
        other = self._ladder_store()
        with pytest.raises(ValueError):
            finder.shapes_for(PrefixView(other, 2))

    def test_whole_store_find_shapes_interface(self):
        store = self._ladder_store()
        assert DeltaShapeFinder(store).find_shapes() == InMemoryShapeFinder(store).find_shapes()

    def test_new_rows_appended_after_scan_are_picked_up(self):
        store = self._ladder_store()
        finder = DeltaShapeFinder(store)
        finder.shapes_for(PrefixView(store, 10))
        store.relation("T").insert(("y",))
        store.insert("S", ("c", "c"))
        view = PrefixView(store, 10)
        assert finder.shapes_for(view) == InMemoryShapeFinder(view).find_shapes()
