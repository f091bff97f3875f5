"""Unit tests for repro.core.atoms."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.atoms import (
    Atom,
    atom_sort_key,
    match_atom,
    positions_of,
    schema_of,
    variables_of,
)
from repro.core.predicates import Position, Predicate
from repro.core.terms import Constant, Null, Variable
from repro.exceptions import ValidationError

R = Predicate("R", 2)
S = Predicate("S", 3)
a, b = Constant("a"), Constant("b")
x, y, z = Variable("x"), Variable("y"), Variable("z")
n1 = Null("n1")


class TestAtomConstruction:
    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            Atom(R, (a,))

    def test_non_term_argument_rejected(self):
        with pytest.raises(ValidationError):
            Atom(R, (a, "b"))

    def test_of_constructor(self):
        atom = Atom.of("R", a, b)
        assert atom.predicate == R
        assert atom.terms == (a, b)

    def test_immutability(self):
        atom = Atom(R, (a, b))
        with pytest.raises(AttributeError):
            atom.terms = (b, a)

    def test_equality_and_hash(self):
        assert Atom(R, (a, b)) == Atom(R, (a, b))
        assert Atom(R, (a, b)) != Atom(R, (b, a))
        assert len({Atom(R, (a, b)), Atom(R, (a, b))}) == 1

    def test_repr(self):
        assert repr(Atom(R, (a, x))) == "R(a, ?x)"


class TestAtomQueries:
    def test_variables_constants_nulls(self):
        atom = Atom(S, (a, x, n1))
        assert atom.variables() == {x}
        assert atom.constants() == {a}
        assert atom.nulls() == {n1}
        assert atom.domain() == {a, n1}

    def test_is_fact(self):
        assert Atom(R, (a, b)).is_fact()
        assert not Atom(R, (a, n1)).is_fact()
        assert not Atom(R, (a, x)).is_fact()

    def test_is_ground(self):
        assert Atom(R, (a, n1)).is_ground()
        assert not Atom(R, (a, x)).is_ground()

    def test_positions_of(self):
        atom = Atom(S, (x, y, x))
        assert atom.positions_of(x) == (Position(S, 1), Position(S, 3))
        assert atom.positions_of(z) == ()

    def test_substitute(self):
        atom = Atom(R, (x, y))
        assert atom.substitute({x: a}) == Atom(R, (a, y))

    def test_has_repeated_terms(self):
        assert Atom(R, (x, x)).has_repeated_terms()
        assert not Atom(R, (x, y)).has_repeated_terms()

    def test_arity_property(self):
        assert Atom(S, (x, y, z)).arity == 3


class TestAtomSetHelpers:
    def test_variables_of(self):
        atoms = [Atom(R, (x, y)), Atom(R, (y, z))]
        assert variables_of(atoms) == {x, y, z}

    def test_positions_of_set(self):
        atoms = [Atom(R, (x, y)), Atom(S, (x, x, z))]
        assert positions_of(atoms, x) == {Position(R, 1), Position(S, 1), Position(S, 2)}

    def test_schema_of(self):
        atoms = [Atom(R, (a, b)), Atom(S, (a, a, b))]
        assert schema_of(atoms) == {R, S}


# Names chosen to collide across kinds and to be prefixes of one another;
# predicates that share a name across arities and a prefix across names.
_TERMS = st.builds(
    lambda kind, name: kind(name),
    st.sampled_from([Constant, Null]),
    st.sampled_from(["a", "aa", "b", "Null", "n_1", "é"]),
)
_PREDICATES = st.sampled_from(
    [Predicate("P", 0), Predicate("P", 1), Predicate("P", 2), Predicate("PP", 1), Predicate("Q", 2)]
)
_ATOMS = _PREDICATES.flatmap(
    lambda predicate: st.tuples(*[_TERMS] * predicate.arity).map(
        lambda terms: Atom(predicate, terms)
    )
)


class TestAtomSortKey:
    @given(st.lists(_ATOMS, max_size=12))
    def test_orders_exactly_as_atom_less_than(self, atoms):
        assert sorted(atoms, key=atom_sort_key) == sorted(atoms)

    def test_atom_less_than_stays_for_callers_that_use_it(self):
        assert Atom(R, (a, b)) < Atom(R, (b, a)) < Atom(S, (a, a, a))
        assert Atom(R, (a, a)) < Atom(R, (n1, a))  # "Constant" sorts before "Null"
        assert max(Atom(R, (a, b)), Atom(R, (a, n1))) == Atom(R, (a, n1))


class TestMatchAtom:
    def test_basic_match(self):
        assert match_atom(Atom(R, (x, y)), Atom(R, (a, b))) == {x: a, y: b}

    def test_predicate_mismatch(self):
        assert match_atom(Atom(R, (x, y)), Atom(Predicate("T", 2), (a, b))) is None

    def test_repeated_variable_requires_equal_values(self):
        assert match_atom(Atom(R, (x, x)), Atom(R, (a, a))) == {x: a}
        assert match_atom(Atom(R, (x, x)), Atom(R, (a, b))) is None

    def test_constants_match_verbatim(self):
        assert match_atom(Atom(R, (a, y)), Atom(R, (a, b))) == {y: b}
        assert match_atom(Atom(R, (a, y)), Atom(R, (b, b))) is None

    def test_base_is_respected_and_left_unchanged(self):
        base = {x: a}
        assert match_atom(Atom(R, (x, y)), Atom(R, (a, b)), {x: b}) is None
        assert match_atom(Atom(R, (x, y)), Atom(R, (a, b)), base) == {x: a, y: b}
        assert base == {x: a}
