"""Unit tests for the shape-controlled TGD generator."""

import pytest

from repro.exceptions import ExperimentConfigError
from repro.generators.tgd_generator import (
    TGDGeneratorConfig,
    generate_tgds,
    make_schema,
)


class TestSchemaFactory:
    def test_make_schema(self):
        schema = make_schema(50, min_arity=1, max_arity=5, seed=1)
        assert len(schema) == 50
        assert all(1 <= p.arity <= 5 for p in schema)

    def test_reproducible(self):
        assert make_schema(20, seed=3) == make_schema(20, seed=3)


class TestConfigValidation:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ExperimentConfigError):
            TGDGeneratorConfig(0, 1, 5, 10)
        with pytest.raises(ExperimentConfigError):
            TGDGeneratorConfig(5, 3, 2, 10)
        with pytest.raises(ExperimentConfigError):
            TGDGeneratorConfig(5, 1, 5, 10, tclass="XL")
        with pytest.raises(ExperimentConfigError):
            TGDGeneratorConfig(5, 1, 5, 10, existential_probability=2.0)


class TestGeneratedTGDs:
    def _schema(self):
        return make_schema(40, min_arity=1, max_arity=5, seed=11)

    def test_simple_linear_generation(self):
        tgds = generate_tgds(self._schema(), ssize=20, min_arity=1, max_arity=5, tsize=200, tclass="SL", seed=1)
        assert len(tgds) == 200
        assert tgds.is_simple_linear()
        assert all(tgd.is_single_head() for tgd in tgds)

    def test_linear_generation_repeats_body_variables(self):
        tgds = generate_tgds(self._schema(), ssize=20, min_arity=2, max_arity=5, tsize=300, tclass="L", seed=2)
        assert tgds.is_linear()
        assert any(not tgd.is_simple_linear() for tgd in tgds)

    def test_schema_subset_size_respected(self):
        tgds = generate_tgds(self._schema(), ssize=10, min_arity=1, max_arity=5, tsize=300, tclass="SL", seed=3)
        assert len(tgds.schema()) <= 10

    def test_non_empty_frontier_guaranteed(self):
        tgds = generate_tgds(
            self._schema(), ssize=20, min_arity=1, max_arity=5, tsize=300, tclass="L", seed=4,
            existential_probability=0.9,
        )
        assert all(not tgd.has_empty_frontier() for tgd in tgds)

    def test_existential_probability_zero_gives_full_tgds(self):
        tgds = generate_tgds(
            self._schema(), ssize=20, min_arity=1, max_arity=5, tsize=100, tclass="SL", seed=5,
            existential_probability=0.0,
        )
        assert all(not tgd.existential_variables() for tgd in tgds)

    def test_reproducible_with_same_seed(self):
        first = generate_tgds(self._schema(), ssize=15, min_arity=1, max_arity=5, tsize=50, seed=6)
        second = generate_tgds(self._schema(), ssize=15, min_arity=1, max_arity=5, tsize=50, seed=6)
        assert first == second

    def test_schema_too_small_rejected(self):
        schema = make_schema(5, min_arity=1, max_arity=5, seed=7)
        with pytest.raises(ExperimentConfigError):
            generate_tgds(schema, ssize=10, min_arity=1, max_arity=5, tsize=10)

    def test_duplicate_cap_returns_fewer_rules_instead_of_hanging(self):
        # One unary predicate admits very few distinct simple-linear rules.
        schema = make_schema(1, min_arity=1, max_arity=1, seed=8)
        tgds = generate_tgds(schema, ssize=1, min_arity=1, max_arity=1, tsize=50, tclass="SL", seed=8)
        assert 1 <= len(tgds) <= 50
