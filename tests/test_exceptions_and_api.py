"""Tests for the exception hierarchy and the top-level public API surface."""

import pytest

import repro
from repro.exceptions import (
    ChaseLimitExceeded,
    ExperimentConfigError,
    NotLinearError,
    NotSimpleLinearError,
    ParseError,
    ReproError,
    StorageError,
    UnknownRelationError,
    ValidationError,
)


class TestExceptionHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for error_class in (
            ParseError,
            ValidationError,
            NotLinearError,
            NotSimpleLinearError,
            StorageError,
            UnknownRelationError,
            ChaseLimitExceeded,
            ExperimentConfigError,
        ):
            assert issubclass(error_class, ReproError)

    def test_class_specific_subtyping(self):
        assert issubclass(NotLinearError, ValidationError)
        assert issubclass(NotSimpleLinearError, ValidationError)
        assert issubclass(UnknownRelationError, StorageError)

    def test_parse_error_carries_location(self):
        error = ParseError("bad atom", line_number=7, line="R(x")
        assert "line 7" in str(error)
        assert error.line == "R(x"

    def test_chase_limit_carries_counters(self):
        error = ChaseLimitExceeded("too big", atoms_created=10, rounds=3)
        assert error.atoms_created == 10
        assert error.rounds == 3

    def test_catching_the_base_class(self):
        with pytest.raises(ReproError):
            repro.parse_rules("not a rule")


class TestPublicAPI:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name}"

    def test_version_is_a_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_quickstart_docstring_example_is_accurate(self):
        rules = repro.parse_rules("R(x,y) -> R(y,z)")
        database = repro.parse_database("R(a,b).")
        assert bool(repro.is_chase_finite_sl(database, rules)) is False

    def test_subpackages_are_importable(self):
        import repro.chase
        import repro.core
        import repro.experiments
        import repro.generators
        import repro.graph
        import repro.scenarios
        import repro.simplification
        import repro.storage
        import repro.termination

        assert repro.chase and repro.core and repro.experiments
        assert repro.generators and repro.graph and repro.scenarios
        assert repro.simplification and repro.storage and repro.termination

    @pytest.mark.parametrize("wrap", [tuple, list])
    def test_the_chase_entries_take_a_tgd_set(self, wrap):
        # A bare sequence of TGDs is refused at the public entry, in one line
        # naming the type it wants, not deep inside the engine.
        from repro.chase import SemiObliviousChase, chase, satisfies

        rules = repro.parse_rules("R(x,y) -> S(y,z)")
        database = repro.parse_database("R(a,b).")
        for call in (
            lambda: chase(database, wrap(rules)),
            lambda: satisfies(database, wrap(rules)),
            lambda: SemiObliviousChase().run(database, wrap(rules)),
        ):
            with pytest.raises(TypeError) as info:
                call()
            message = str(info.value)
            assert "TGDSet" in message and wrap.__name__ in message and "\n" not in message
