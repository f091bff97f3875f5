"""Unit tests for the reference interpreter's specializations (Definition 3.5)."""

import pytest

from repro.chase.bounds import bell_number
from repro.core.atoms import Atom
from repro.core.predicates import Predicate
from repro.core.terms import Variable
from repro.simplification.shapes import Shape
from tests.simplification.reference import (
    Specialization,
    enumerate_specializations,
    h_specialization,
    identity_specialization,
)

x, y, z, w = Variable("x"), Variable("y"), Variable("z"), Variable("w")


class TestSpecializationObject:
    def test_identity(self):
        specialization = identity_specialization((x, y, z))
        assert specialization.is_identity()
        assert specialization.images() == (x, y, z)

    def test_first_variable_must_map_to_itself(self):
        with pytest.raises(ValueError):
            Specialization((x, y), {x: y})

    def test_later_variable_may_only_collapse_backwards(self):
        Specialization((x, y, z), {z: x})  # fine
        with pytest.raises(ValueError):
            Specialization((x, y, z), {y: z})

    def test_collapse_target_must_be_an_image(self):
        # z may map to y's image; if y collapsed onto x, mapping z onto y is invalid.
        with pytest.raises(ValueError):
            Specialization((x, y, z), {y: x, z: y})
        Specialization((x, y, z), {y: x, z: x})  # fine

    def test_apply_to_atom(self):
        specialization = Specialization((x, y), {y: x})
        atom = Atom(Predicate("R", 2), (x, y))
        assert specialization.apply_to_atom(atom) == Atom(Predicate("R", 2), (x, x))

    def test_repeated_variable_tuples_are_supported(self):
        specialization = Specialization((x, y, x), {y: x})
        assert specialization.images() == (x, x, x)

    def test_equality_and_hash(self):
        assert Specialization((x, y), {y: x}) == Specialization((x, y), {y: x})
        assert Specialization((x, y), {y: x}) != Specialization((x, y), {})
        assert len({Specialization((x, y), {}), identity_specialization((x, y))}) == 1


class TestEnumeration:
    def test_counts_are_bell_numbers(self):
        variables = (x, y, z, w)
        for arity in range(1, 5):
            specializations = list(enumerate_specializations(variables[:arity]))
            assert len(specializations) == bell_number(arity)
            assert len(set(specializations)) == len(specializations)

    def test_two_variables(self):
        images = {s.images() for s in enumerate_specializations((x, y))}
        assert images == {(x, y), (x, x)}

    def test_repeated_tuple(self):
        # (x, y, x) has two distinct variables -> Bell(2) = 2 specializations.
        images = {s.images() for s in enumerate_specializations((x, y, x))}
        assert images == {(x, y, x), (x, x, x)}

    def test_empty_tuple_has_one_specialization(self):
        # Bell(0) = 1: a nullary body atom admits exactly the empty specialization.
        specializations = list(enumerate_specializations(()))
        assert len(specializations) == 1
        assert specializations[0].images() == ()
        assert specializations[0].is_identity()


class TestHSpecialization:
    def test_paper_example(self):
        # h from R(x,y,x,z) to R(1,1,1,2): f(x)=x, f(y)=x, f(z)=z  (Section 4.2)
        atom = Atom(Predicate("R", 4), (x, y, x, z))
        shape = Shape("R", (1, 1, 1, 2))
        specialization = h_specialization(atom, shape)
        assert specialization is not None
        assert specialization(x) == x
        assert specialization(y) == x
        assert specialization(z) == z

    def test_incompatible_shape_returns_none(self):
        # R(x, x) cannot be mapped onto the shape R(1, 2) (distinct values required...
        # actually the homomorphism x->1, x->2 is inconsistent).
        atom = Atom(Predicate("R", 2), (x, x))
        assert h_specialization(atom, Shape("R", (1, 2))) is None

    def test_identity_shape_gives_identity_specialization(self):
        atom = Atom(Predicate("R", 3), (x, y, z))
        specialization = h_specialization(atom, Shape("R", (1, 2, 3)))
        assert specialization is not None and specialization.is_identity()

    def test_predicate_and_arity_must_match(self):
        atom = Atom(Predicate("R", 2), (x, y))
        assert h_specialization(atom, Shape("S", (1, 2))) is None
        assert h_specialization(atom, Shape("R", (1, 2, 3))) is None

    def test_every_compatible_shape_gives_a_distinct_specialization(self):
        from repro.simplification.shapes import shapes_of_predicate

        atom = Atom(Predicate("R", 3), (x, y, z))
        specializations = [
            h_specialization(atom, shape) for shape in shapes_of_predicate(Predicate("R", 3))
        ]
        specializations = [s for s in specializations if s is not None]
        assert len(specializations) == bell_number(3)
        assert len(set(specializations)) == bell_number(3)
