"""The naive reference chase (repro.fuzz.reference) the oracles compare against."""

import pytest

from repro.chase import has_homomorphism as indexed_has_homomorphism
from repro.chase.engine import ENGINE_CLASSES
from repro.chase.matching import IndexedTriggerSource
from repro.core.atoms import Atom
from repro.core.instances import Instance
from repro.core.parser import parse_database, parse_rules
from repro.core.predicates import Predicate
from repro.core.terms import Constant, Variable
from repro.fuzz.reference import (
    REFERENCE_ENGINES,
    NaiveTriggerSource,
    has_homomorphism,
    homomorphisms,
    reference_chase,
)

R = Predicate("R", 2)
S = Predicate("S", 2)
a, b, c = Constant("a"), Constant("b"), Constant("c")
x, y, z = Variable("x"), Variable("y"), Variable("z")


class TestHomomorphisms:
    def setup_method(self):
        self.instance = Instance([Atom(R, (a, b)), Atom(R, (b, c)), Atom(S, (b, b))])

    def test_single_atom(self):
        assert len(list(homomorphisms([Atom(R, (x, y))], self.instance))) == 2

    def test_join_across_atoms(self):
        results = list(homomorphisms([Atom(R, (x, y)), Atom(R, (y, z))], self.instance))
        assert results == [{x: a, y: b, z: c}]

    def test_no_match(self):
        assert not has_homomorphism([Atom(S, (x, y)), Atom(R, (y, x))], self.instance)

    def test_has_homomorphism_with_base(self):
        assert has_homomorphism([Atom(R, (x, y))], self.instance, base={x: b})
        assert not has_homomorphism([Atom(R, (x, y))], self.instance, base={x: c})

    def test_repeated_variables_in_pattern(self):
        assert list(homomorphisms([Atom(S, (x, x))], self.instance)) == [{x: b}]

    @pytest.mark.parametrize(
        "atoms, base",
        [
            ([Atom(R, (x, y)), Atom(S, (y, y))], {}),
            ([Atom(R, (x, y)), Atom(S, (y, y))], {x: b}),
            ([Atom(R, (x, y)), Atom(R, (y, z))], {z: c}),
            ([Atom(R, (x, y)), Atom(R, (y, z))], {z: a}),
            ([Atom(S, (x, a))], {}),
        ],
    )
    def test_agrees_with_the_product_check(self, atoms, base):
        assert has_homomorphism(atoms, self.instance, base) == indexed_has_homomorphism(
            atoms, self.instance, base
        )


class TestReferenceChase:
    def test_engines_swap_only_the_trigger_source(self):
        assert set(REFERENCE_ENGINES) == set(ENGINE_CLASSES)
        for variant, engine in REFERENCE_ENGINES.items():
            assert issubclass(engine, ENGINE_CLASSES[variant])
            assert engine.trigger_source is NaiveTriggerSource
            assert ENGINE_CLASSES[variant].trigger_source is IndexedTriggerSource

    def test_unknown_variant_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown chase variant"):
            reference_chase(parse_database("R(a,b)."), parse_rules("R(x,y) -> S(y)"), "core")
