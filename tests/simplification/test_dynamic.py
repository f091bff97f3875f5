"""Unit tests for dynamic simplification (Algorithm 2)."""

import pytest
from hypothesis import given, settings

from repro.core.parser import parse_database, parse_rules
from repro.core.predicates import Predicate
from repro.simplification.dynamic import dynamic_simplification
from repro.simplification.shapes import Shape, shapes_of_database
from repro.simplification.static import static_simplification
from tests.helpers import databases, linear_tgd_sets
from tests.simplification.reference import (
    applicable,
    head_shapes,
    shape_from_simplified_predicate,
)


class TestApplicable:
    def test_only_matching_shapes_produce_rules(self):
        rules = parse_rules("R(x,y) -> S(y,z)")
        produced = applicable({Shape("R", (1, 2))}, rules)
        assert len(produced) == 1
        assert tuple(produced)[0].body[0].predicate.name == "R__1_2"
        assert len(applicable({Shape("T", (1, 2))}, rules)) == 0

    def test_incompatible_shape_is_skipped(self):
        rules = parse_rules("R(x,x) -> S(x,z)")
        assert len(applicable({Shape("R", (1, 2))}, rules)) == 0
        assert len(applicable({Shape("R", (1, 1))}, rules)) == 1

    def test_collapsing_shape_specializes_the_head(self):
        rules = parse_rules("R(x,y) -> S(x,y)")
        produced = applicable({Shape("R", (1, 1))}, rules)
        assert tuple(produced)[0].head[0].predicate.name == "S__1_1"


class TestShapeNameRoundTrip:
    def test_round_trip(self):
        shape = Shape("R", (1, 2, 1))
        assert shape_from_simplified_predicate(shape.as_predicate()) == shape

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            shape_from_simplified_predicate(Predicate("R", 2))

    def test_head_shapes(self):
        rules = parse_rules("R(x,y) -> S(x,y)")
        produced = applicable({Shape("R", (1, 1))}, rules)
        assert head_shapes(produced) == {Shape("S", (1, 1))}


class TestDynamicSimplification:
    def test_example_3_4(self, example_3_4):
        database, rules = example_3_4
        result = dynamic_simplification(database, rules)
        # D = {R(a,b)} has only the shape R[1,2]; the rule body R(x,x) is
        # incompatible with it, so no simplified rule is produced.
        assert len(result.tgds) == 0
        assert result.initial_shapes == {Shape("R", (1, 2))}

    def test_shape_propagation_through_heads(self):
        rules = parse_rules("R(x,y) -> S(y,z)\nS(x,y) -> T(x,x)")
        result = dynamic_simplification(parse_database("R(a,b)."), rules)
        assert Shape("S", (1, 2)) in result.derived_shapes
        assert Shape("T", (1, 1)) in result.derived_shapes
        assert len(result.tgds) == 2
        assert result.iterations >= 2

    def test_accepts_precomputed_shapes_and_databases(self):
        rules = parse_rules("R(x,y) -> S(y,z)")
        database = parse_database("R(a,b).")
        from_database = dynamic_simplification(database, rules)
        from_shapes = dynamic_simplification(shapes_of_database(database), rules)
        assert from_database.tgds == from_shapes.tgds

    def test_rejects_non_shape_iterables(self):
        rules = parse_rules("R(x,y) -> S(y,z)")
        with pytest.raises(TypeError):
            dynamic_simplification(["not-a-shape"], rules)

    def test_empty_database_produces_nothing(self):
        rules = parse_rules("R(x,y) -> S(y,z)")
        result = dynamic_simplification(parse_database(""), rules)
        assert len(result.tgds) == 0
        assert result.iterations == 0

    @given(databases(max_size=4), linear_tgd_sets(simple=False, max_size=3))
    @settings(max_examples=25)
    def test_dynamic_is_a_subset_of_static(self, database, tgds):
        dynamic = dynamic_simplification(database, tgds)
        static = static_simplification(tgds)
        assert set(dynamic.tgds) <= set(static)

    @given(databases(max_size=4), linear_tgd_sets(simple=False, max_size=3))
    @settings(max_examples=25)
    def test_initial_shapes_are_database_shapes(self, database, tgds):
        result = dynamic_simplification(database, tgds)
        assert result.initial_shapes == shapes_of_database(database)
        assert result.initial_shapes <= result.derived_shapes or not result.initial_shapes

    @given(databases(max_size=4), linear_tgd_sets(simple=True, max_size=3))
    @settings(max_examples=25)
    def test_every_kept_rule_has_a_derivable_body_shape(self, database, tgds):
        result = dynamic_simplification(database, tgds)
        for rule in result.tgds:
            body_shape = shape_from_simplified_predicate(rule.body[0].predicate)
            assert body_shape in result.derived_shapes


class TestUnifiedShapeSourceResolution:
    """Both entry points resolve shape sources through the same helper."""

    RULES = "R(x,y) -> S(y,z)\n"

    def _sources(self):
        from repro.storage.database import RelationalDatabase
        from repro.storage.shape_finder import InMemoryShapeFinder

        database = parse_database("R(a,b).\n")
        store = RelationalDatabase.from_database(database)
        return [
            database,                          # a core Database
            InMemoryShapeFinder(store),        # a finder with find_shapes()
            shapes_of_database(database),      # a plain iterable of shapes
        ]

    def test_every_source_kind_gives_the_same_result(self):
        from repro.simplification.shapes import resolve_shapes
        from repro.termination.linear import is_chase_finite_l

        rules = parse_rules(self.RULES)
        resolved = [resolve_shapes(source) for source in self._sources()]
        assert resolved[0] == resolved[1] == resolved[2] == {Shape("R", (1, 2))}
        simplifications = [
            dynamic_simplification(source, rules).tgds for source in self._sources()
        ]
        assert simplifications[0] == simplifications[1] == simplifications[2]
        verdicts = [is_chase_finite_l(source, rules).finite for source in self._sources()]
        assert verdicts[0] == verdicts[1] == verdicts[2]

    def test_invalid_iterable_rejected_everywhere(self):
        from repro.termination.linear import is_chase_finite_l

        rules = parse_rules(self.RULES)
        with pytest.raises(TypeError):
            dynamic_simplification(["not-a-shape"], rules)
        with pytest.raises(TypeError):
            is_chase_finite_l(["not-a-shape"], rules)
