"""Unit tests for repro.simplification.shapes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.chase.bounds import bell_number
from repro.core.atoms import Atom
from repro.core.instances import Instance
from repro.core.parser import parse_database
from repro.core.predicates import Predicate, Schema
from repro.core.terms import Constant, Null, Variable
from repro.simplification.shapes import (
    Shape,
    count_shapes,
    database_of_shapes,
    identifier_tuple,
    identifier_tuples_of_arity,
    is_identifier_tuple,
    shape_of_atom,
    shapes_of_database,
    shapes_of_predicate,
    shapes_of_schema,
    simplify_atom,
    simplify_database,
    unique_tuple,
)
from tests.helpers import databases

x, y, z = Variable("x"), Variable("y"), Variable("z")


class TestIdentifierAlgebra:
    def test_paper_example(self):
        # id((x, y, x, z, y)) = (1, 2, 1, 3, 2), unique = (x, y, z)  (Section 3)
        terms = (x, y, x, z, y)
        assert identifier_tuple(terms) == (1, 2, 1, 3, 2)
        assert unique_tuple(terms) == (x, y, z)

    def test_all_distinct(self):
        assert identifier_tuple((x, y, z)) == (1, 2, 3)

    def test_all_equal(self):
        assert identifier_tuple((x, x, x)) == (1, 1, 1)

    def test_is_identifier_tuple(self):
        assert is_identifier_tuple((1, 2, 1, 3, 2))
        assert not is_identifier_tuple((2, 1))  # must start at 1
        assert not is_identifier_tuple((1, 3))  # must not skip
        assert is_identifier_tuple(())  # the shape of a nullary atom
        assert not is_identifier_tuple((0,))

    @given(st.lists(st.sampled_from([x, y, z]), min_size=1, max_size=6))
    def test_identifier_tuple_is_always_valid(self, terms):
        assert is_identifier_tuple(identifier_tuple(terms))

    @given(st.lists(st.sampled_from([x, y, z]), min_size=1, max_size=6))
    def test_identifier_respects_equality_pattern(self, terms):
        ids = identifier_tuple(terms)
        for i in range(len(terms)):
            for j in range(len(terms)):
                assert (terms[i] == terms[j]) == (ids[i] == ids[j])


class TestShape:
    def test_invalid_identifiers_rejected(self):
        with pytest.raises(ValueError):
            Shape("R", (2, 1))

    def test_shape_of_atom(self):
        atom = Atom(Predicate("R", 3), (x, y, x))
        assert shape_of_atom(atom) == Shape("R", (1, 2, 1))

    def test_as_predicate_has_reduced_arity(self):
        shape = Shape("R", (1, 1, 2))
        predicate = shape.as_predicate()
        assert predicate.arity == 2
        assert predicate.name == "R__1_1_2"

    def test_canonical_atom(self):
        shape = Shape("R", (1, 1, 2))
        atom = shape.canonical_atom()
        assert atom.terms == (Constant("1"), Constant("1"), Constant("2"))

    def test_equal_position_pairs(self):
        assert Shape("R", (1, 1, 2)).equal_position_pairs() == {(1, 2)}
        assert Shape("R", (1, 2)).equal_position_pairs() == set()

    def test_refines(self):
        assert Shape("R", (1, 1, 1)).refines(Shape("R", (1, 1, 2)))
        assert not Shape("R", (1, 1, 2)).refines(Shape("R", (1, 1, 1)))
        assert not Shape("S", (1, 1)).refines(Shape("R", (1, 1)))

    def test_is_simple(self):
        assert Shape("R", (1, 2, 3)).is_simple()
        assert not Shape("R", (1, 1)).is_simple()

    def test_str(self):
        assert str(Shape("R", (1, 2, 1))) == "R[1,2,1]"


class TestSimplification:
    def test_simplify_atom(self):
        atom = Atom(Predicate("R", 3), (Constant("a"), Constant("b"), Constant("a")))
        simplified = simplify_atom(atom)
        assert simplified.predicate.name == "R__1_2_1"
        assert simplified.terms == (Constant("a"), Constant("b"))

    def test_simplify_database(self):
        database = parse_database("R(a,a).\nR(a,b).")
        simplified = simplify_database(database)
        names = {atom.predicate.name for atom in simplified}
        assert names == {"R__1_1", "R__1_2"}

    def test_shapes_of_database(self):
        database = parse_database("R(a,a).\nR(b,b).\nR(a,b).")
        assert shapes_of_database(database) == {Shape("R", (1, 1)), Shape("R", (1, 2))}
        assert count_shapes(database) == 2

    @given(databases(max_size=6))
    def test_shape_count_never_exceeds_atom_count(self, database):
        assert count_shapes(database) <= len(database)

    @given(databases(max_size=6))
    def test_shapes_of_database_is_the_per_atom_definition(self, database):
        assert shapes_of_database(database) == {shape_of_atom(atom) for atom in database}

    def test_shapes_of_an_instance_with_nulls_and_a_name_at_two_arities(self):
        a, n = Constant("n"), Null("n")  # equal names, different terms
        instance = Instance([
            Atom(Predicate("R", 2), (a, n)),
            Atom(Predicate("R", 2), (n, n)),
            Atom(Predicate("R", 3), (n, a, n)),
            Atom(Predicate("N", 0), ()),
        ])
        assert shapes_of_database(instance) == {
            Shape("R", (1, 2)), Shape("R", (1, 1)), Shape("R", (1, 2, 1)), Shape("N", ()),
        }
        assert shapes_of_database(Instance()) == set()

    @given(databases(max_size=6))
    def test_simplified_database_has_one_atom_per_distinct_simplification(self, database):
        simplified = simplify_database(database)
        assert len(simplified) <= len(database)
        assert {shape_of_atom(a).predicate_name for a in database} == {
            atom.predicate.name.rsplit("__", 1)[0] for atom in simplified
        }


class TestShapeEnumeration:
    def test_counts_are_bell_numbers(self):
        for arity in range(1, 6):
            assert len(list(identifier_tuples_of_arity(arity))) == bell_number(arity)

    def test_shapes_of_predicate(self):
        shapes = list(shapes_of_predicate(Predicate("R", 3)))
        assert len(shapes) == 5
        assert all(shape.predicate_name == "R" for shape in shapes)

    def test_shapes_of_schema(self):
        schema = Schema([Predicate("R", 2), Predicate("S", 1)])
        assert len(list(shapes_of_schema(schema))) == 3

    def test_invalid_arity(self):
        with pytest.raises(ValueError):
            list(identifier_tuples_of_arity(-1))

    def test_nullary_arity_has_one_shape(self):
        assert list(identifier_tuples_of_arity(0)) == [()]

    def test_database_of_shapes(self):
        database = database_of_shapes({Shape("R", (1, 2)), Shape("P", (1, 1, 2))})
        assert len(database) == 2
        assert Atom(Predicate("P", 3), (Constant("1"), Constant("1"), Constant("2"))) in database


class TestNullaryShapes:
    """Round-trip coverage for the nullary-shape semantics.

    A nullary predicate ``R/0`` has exactly one shape, ``R[()]`` — the empty
    identifier tuple is the restricted growth string of length 0.
    """

    def test_nullary_shape_is_valid(self):
        shape = Shape("Flag", ())
        assert shape.arity == 0
        assert shape.distinct_terms == 0
        assert shape.is_simple()
        assert shape.equal_position_pairs() == set()

    def test_parser_to_shape_round_trip(self):
        from repro.core.parser import parse_fact
        from tests.simplification.reference import shape_from_simplified_predicate

        atom = parse_fact("Flag().")
        shape = shape_of_atom(atom)
        assert shape == Shape("Flag", ())
        simplified_predicate = shape.as_predicate()
        assert simplified_predicate.name == "Flag__"
        assert simplified_predicate.arity == 0
        assert shape_from_simplified_predicate(simplified_predicate) == shape

    def test_parse_database_with_nullary_facts(self):
        database = parse_database("Flag().\nR(a,b).\n")
        shapes = shapes_of_database(database)
        assert Shape("Flag", ()) in shapes
        assert Shape("R", (1, 2)) in shapes

    def test_serializer_round_trip(self):
        from repro.core.parser import parse_fact
        from repro.core.serializer import serialize_fact

        atom = parse_fact("Flag().")
        assert serialize_fact(atom) == "Flag()."
        assert parse_fact(serialize_fact(atom)) == atom

    def test_simplify_nullary_atom(self):
        atom = Atom(Predicate("Flag", 0), ())
        simplified = simplify_atom(atom)
        assert simplified.predicate.name == "Flag__"
        assert simplified.terms == ()

    def test_database_of_shapes_with_nullary(self):
        database = database_of_shapes({Shape("Flag", ())})
        assert len(database) == 1
        atom = next(iter(database))
        assert atom.predicate == Predicate("Flag", 0)

    def test_bell_zero_enumeration(self):
        assert bell_number(0) == 1
        assert list(shapes_of_predicate(Predicate("Flag", 0))) == [Shape("Flag", ())]
