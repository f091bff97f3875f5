"""Unit tests for the shape-controlled data generator."""

import pytest

from repro.exceptions import ExperimentConfigError
from repro.generators.data_generator import DataGeneratorConfig, generate_database
from repro.generators.tgd_generator import make_schema
from repro.simplification.shapes import identifier_tuple
from repro.storage.shape_finder import InMemoryShapeFinder


class TestConfigValidation:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ExperimentConfigError):
            DataGeneratorConfig(0, 1, 2, 10, 5)
        with pytest.raises(ExperimentConfigError):
            DataGeneratorConfig(5, 3, 2, 10, 5)
        with pytest.raises(ExperimentConfigError):
            DataGeneratorConfig(5, 1, 4, 2, 5)  # dsize < max_arity
        with pytest.raises(ExperimentConfigError):
            DataGeneratorConfig(5, 1, 2, 10, -1)


class TestGeneratedDatabases:
    def test_requested_sizes(self):
        store = generate_database(preds=7, min_arity=1, max_arity=4, dsize=50, rsize=20, seed=1)
        assert len(store.relation_names()) == 7
        assert store.total_rows() == 7 * 20
        for relation in store.relations():
            assert 1 <= relation.arity <= 4
            assert len(relation) == 20

    def test_domain_size_respected(self):
        store = generate_database(preds=4, min_arity=2, max_arity=3, dsize=9, rsize=30, seed=2)
        values = {value for relation in store.relations() for row in relation for value in row}
        assert len(values) <= 9

    def test_reproducible_with_same_seed(self):
        first = generate_database(preds=3, min_arity=1, max_arity=3, dsize=20, rsize=10, seed=5)
        second = generate_database(preds=3, min_arity=1, max_arity=3, dsize=20, rsize=10, seed=5)
        assert [list(r) for r in first.relations()] == [list(r) for r in second.relations()]

    def test_different_seeds_differ(self):
        first = generate_database(preds=3, min_arity=2, max_arity=3, dsize=20, rsize=10, seed=5)
        second = generate_database(preds=3, min_arity=2, max_arity=3, dsize=20, rsize=10, seed=6)
        assert [list(r) for r in first.relations()] != [list(r) for r in second.relations()]

    def test_shapes_are_varied(self):
        # The whole point of the generator: tuples of arity >= 2 come in several shapes.
        store = generate_database(preds=2, min_arity=3, max_arity=3, dsize=30, rsize=200, seed=3)
        shapes = InMemoryShapeFinder(store).find_shapes()
        assert len(shapes) > 2

    def test_tuple_shapes_repeat_values_exactly_as_the_shape_dictates(self):
        store = generate_database(preds=2, min_arity=3, max_arity=4, dsize=30, rsize=50, seed=4)
        for relation in store.relations():
            for row in relation:
                ids = identifier_tuple(row)
                # values within a block are equal; across blocks distinct (checked by id round trip)
                assert len(set(row)) == max(ids)

    def test_schema_sampling(self):
        schema = make_schema(20, min_arity=1, max_arity=5, seed=9)
        store = generate_database(
            preds=10, min_arity=1, max_arity=5, dsize=50, rsize=5, seed=9, schema=schema
        )
        assert all(store.relation(name).predicate in schema for name in store.relation_names())

    def test_schema_too_small_rejected(self):
        schema = make_schema(3, min_arity=1, max_arity=5, seed=9)
        with pytest.raises(ExperimentConfigError):
            generate_database(preds=10, min_arity=1, max_arity=5, dsize=50, rsize=5, schema=schema)
