"""Minimized regressions for the parser/serializer bugs the fuzzer surfaced.

Each test class pins one bug fixed in the fuzzing PR, reduced to the
smallest input that distinguishes the fixed behaviour from the old one.
The corresponding corpus cases (``tests/regressions/corpus/``) run the same
inputs through the full cross-engine oracle battery; these tests assert the
precise component-level contract so a failure points straight at the layer
that regressed.
"""

import pytest

from repro.core.atoms import Atom
from repro.core.instances import Database
from repro.core.parser import parse_atom, parse_database, parse_fact, parse_rules
from repro.core.predicates import Predicate
from repro.core.serializer import serialize_atom, serialize_database
from repro.core.terms import Constant
from repro.exceptions import ParseError, ValidationError

P = Predicate("P", 1)


def one_fact_database(name):
    """A database holding the single fact ``P(<name>)``."""
    return Database([Atom(P, (Constant(name),))])


class TestQuoteAwareCommentStripping:
    """Bug: the comment cut went through quoted constants at %, #, or //."""

    def test_percent_inside_quotes_is_content(self):
        assert parse_fact('R("100%",b).').terms == (Constant("100%"), Constant("b"))

    def test_hash_and_slashes_inside_quotes_are_content(self):
        assert parse_fact('R("x#y","p//q").').terms == (Constant("x#y"), Constant("p//q"))

    def test_comment_after_quoted_constant_is_still_stripped(self):
        assert parse_fact('R("100%",b). % trailing') == parse_fact('R("100%",b).')

    def test_single_quotes_guard_too(self):
        assert parse_fact("R('a%b').").terms == (Constant("a%b"),)

    def test_unterminated_quote_keeps_the_rest_of_the_line(self):
        # The error is about the dangling quote and shows the whole line; the
        # comment cut must not silently amputate the evidence.
        with pytest.raises(ParseError, match="unterminated quote") as excinfo:
            parse_database('R("dangling % rest')
        assert "% rest" in str(excinfo.value)

    def test_end_to_end_percent_constant_parses(self):
        database = parse_database('R("100%",b).')
        (atom,) = database
        assert atom.terms[0] == Constant("100%")


class TestDoubledQuoteEscaping:
    """Bug: quote characters in constant names broke the round-trip."""

    def test_doubled_double_quote_parses(self):
        atom = parse_atom('P("qu""ote")', as_variable=False)
        assert atom.terms[0] == Constant('qu"ote')

    def test_doubled_single_quote_parses(self):
        atom = parse_atom("P('qu''ote')", as_variable=False)
        assert atom.terms[0] == Constant("qu'ote")

    def test_serializer_emits_doubled_quotes(self):
        atom = parse_atom('P("qu""ote")', as_variable=False)
        assert serialize_atom(atom, in_rule=False) == 'P("qu""ote")'

    @pytest.mark.parametrize(
        "name", ['qu"ote', "qu'ote", '""', 'a""b', "it's a \"test\""]
    )
    def test_quote_bearing_names_round_trip(self, name):
        database = one_fact_database(name)
        assert set(parse_database(serialize_database(database))) == set(database)


class TestQuoteForcingCharacters:
    """Bug: ``a//b`` serialized unquoted, then got truncated to ``a``."""

    @pytest.mark.parametrize("name", ["a//b", "a/b", "a%b", "x#y", "a b", "a\tb"])
    def test_comment_prefixes_and_whitespace_force_quoting(self, name):
        database = one_fact_database(name)
        assert set(parse_database(serialize_database(database))) == set(database)

    def test_unprintable_characters_force_quoting(self):
        rendered = serialize_database(one_fact_database("a\x01b"))
        assert rendered.strip().startswith('P("')


class TestInvalidTermsAreParseErrors:
    """Bug: the empty quoted constant escaped as a raw TypeError."""

    def test_empty_quoted_constant_is_a_parse_error(self):
        with pytest.raises(ParseError, match="invalid term"):
            parse_database('P("").')

    def test_rules_report_invalid_terms_the_same_way(self):
        with pytest.raises(ParseError):
            parse_rules('P(x) -> Q(x)\nP("") -> Q(x)')

    def test_line_break_constants_are_rejected_at_serialization(self):
        # The line-based format cannot represent them; mangling silently
        # would break the round-trip contract, so the serializer refuses.
        with pytest.raises(ValidationError, match="line break"):
            serialize_database(one_fact_database("a\nb"))
