"""Unit tests for repro.core.terms."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.terms import (
    Constant,
    Null,
    NullFactory,
    NullKeyRenderer,
    Variable,
    constants,
    is_constant,
    is_ground,
    is_null,
    is_variable,
    null_name,
    variables,
)
from tests.helpers import GOLDEN_NULL_NAMES


class TestTermBasics:
    def test_constant_equality(self):
        assert Constant("a") == Constant("a")
        assert Constant("a") != Constant("b")

    def test_terms_of_different_kinds_are_never_equal(self):
        assert Constant("a") != Variable("a")
        assert Constant("a") != Null("a")
        assert Variable("a") != Null("a")

    def test_terms_are_hashable_and_distinct_in_sets(self):
        bag = {Constant("a"), Variable("a"), Null("a"), Constant("a")}
        assert len(bag) == 3

    def test_terms_are_immutable(self):
        constant = Constant("a")
        with pytest.raises(AttributeError):
            constant.name = "b"

    def test_empty_name_rejected(self):
        with pytest.raises(TypeError):
            Constant("")

    def test_non_string_name_rejected(self):
        with pytest.raises(TypeError):
            Variable(42)

    def test_string_rendering(self):
        assert str(Constant("a")) == "a"
        assert str(Variable("x")) == "?x"
        assert str(Null("n1")) == "_:n1"

    def test_repr_contains_kind_and_name(self):
        assert "Constant" in repr(Constant("a"))
        assert "'a'" in repr(Constant("a"))

    def test_ordering_is_total_on_terms(self):
        terms = [Variable("x"), Constant("b"), Null("n"), Constant("a")]
        ordered = sorted(terms)
        assert ordered[0] == Constant("a")
        assert ordered[1] == Constant("b")

    def test_ordering_against_non_terms_raises(self):
        with pytest.raises(TypeError):
            Constant("a") < 3


class TestPredicatesOnTerms:
    def test_is_constant(self):
        assert is_constant(Constant("a"))
        assert not is_constant(Variable("a"))

    def test_is_null(self):
        assert is_null(Null("n"))
        assert not is_null(Constant("n"))

    def test_is_variable(self):
        assert is_variable(Variable("x"))
        assert not is_variable(Null("x"))

    def test_is_ground(self):
        assert is_ground(Constant("a"))
        assert is_ground(Null("n"))
        assert not is_ground(Variable("x"))

    def test_constants_builder(self):
        assert constants(["a", 1]) == (Constant("a"), Constant("1"))

    def test_variables_builder(self):
        assert variables(["x", "y"]) == (Variable("x"), Variable("y"))


class TestNullFactory:
    def test_fresh_nulls_are_distinct(self):
        factory = NullFactory()
        assert factory.fresh() != factory.fresh()

    def test_keyed_nulls_are_stable(self):
        factory = NullFactory()
        key = ("sigma", (("x", "a"),), "z")
        assert factory.for_key(key) is factory.for_key(key)

    def test_different_keys_give_different_nulls(self):
        factory = NullFactory()
        assert factory.for_key("k1") != factory.for_key("k2")

    def test_len_counts_created_nulls(self):
        factory = NullFactory()
        factory.fresh()
        factory.for_key("k")
        factory.for_key("k")
        assert len(factory) == 2

    def test_prefix_is_used(self):
        factory = NullFactory(prefix="w")
        assert factory.fresh().name.startswith("w")

    @given(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=10))
    def test_keyed_nulls_are_injective(self, keys):
        factory = NullFactory()
        nulls = [factory.for_key(key) for key in keys]
        assert len(set(nulls)) == len(set(keys))


def _render(key):
    index, witness, variable = key
    renderer = NullKeyRenderer(index, [pair[0].name for pair in witness])
    return renderer.render([pair[1] for pair in witness], variable)


_NAMES = st.text(min_size=1, max_size=6)
_IMAGES = st.builds(lambda kind, name: kind(name), st.sampled_from([Constant, Null]), _NAMES)


class TestNullKeyRendering:
    """The renderer is ``repr(key)`` byte for byte — null names depend on it."""

    @pytest.mark.parametrize("key, name", GOLDEN_NULL_NAMES)
    def test_pinned_keys_render_as_repr_and_keep_their_golden_names(self, key, name):
        assert _render(key) == repr(key)
        assert null_name("n", repr(key)) == name
        assert NullFactory().for_key(key) == Null(name)
        assert NullFactory().for_rendered_key(_render(key)) == Null(name)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.lists(st.tuples(_NAMES, _IMAGES), max_size=4),
        _NAMES,
    )
    def test_any_key_renders_as_repr(self, index, pairs, variable):
        witness = tuple((Variable(name), image) for name, image in pairs)
        assert _render((index, witness, variable)) == repr((index, witness, variable))

    def test_rendered_and_generic_keys_share_one_null(self):
        key, _ = GOLDEN_NULL_NAMES[2]
        factory = NullFactory(prefix="w")
        assert factory.for_rendered_key(_render(key)) is factory.for_key(key)
        assert len(factory) == 1
        assert factory.for_key(key).name.startswith("w_")
