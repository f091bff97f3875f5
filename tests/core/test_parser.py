"""Unit tests for repro.core.parser."""

import gc
import io
import time

import pytest

from repro.core import parser
from repro.core.parser import (
    load_database,
    load_rules,
    parse_atom,
    parse_database,
    parse_fact,
    parse_rules,
    parse_tgd,
)
from repro.core.predicates import Schema
from repro.core.terms import Constant, Variable
from repro.exceptions import ParseError


class TestParseAtom:
    def test_rule_context_identifiers_are_variables(self):
        atom = parse_atom("R(x, y)", as_variable=True)
        assert atom.variables() == {Variable("x"), Variable("y")}

    def test_fact_context_identifiers_are_constants(self):
        atom = parse_atom("R(a, b)", as_variable=False)
        assert atom.constants() == {Constant("a"), Constant("b")}

    def test_quoted_constants(self):
        atom = parse_atom('R("hello world", b)', as_variable=False)
        assert Constant("hello world") in atom.constants()

    def test_question_mark_forces_variable(self):
        atom = parse_atom("R(?x, a)", as_variable=False)
        assert Variable("x") in atom.variables()

    def test_nullary_atom(self):
        atom = parse_atom("R()")
        assert atom.predicate.arity == 0
        assert atom.terms == ()
        with pytest.raises(ParseError):
            parse_atom("R(,)")

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_atom("R(x, y")
        with pytest.raises(ParseError):
            parse_atom("(x, y)")
        with pytest.raises(ParseError):
            parse_atom("Rxy")


class TestParseTGD:
    def test_basic(self):
        tgd = parse_tgd("R(x,y) -> S(y,z)")
        assert tgd.is_simple_linear()
        assert tgd.frontier() == {Variable("y")}

    def test_multi_atom_body_and_head(self):
        tgd = parse_tgd("R(x,y), S(y,w) -> T(x,z), U(z,w)")
        assert len(tgd.body) == 2
        assert len(tgd.head) == 2

    def test_datalog_arrow_swaps_sides(self):
        tgd = parse_tgd("S(y,z) :- R(x,y)")
        assert tgd.body[0].predicate.name == "R"
        assert tgd.head[0].predicate.name == "S"

    def test_double_arrow(self):
        tgd = parse_tgd("R(x,y) => S(y,z)")
        assert tgd.head[0].predicate.name == "S"

    def test_missing_arrow(self):
        with pytest.raises(ParseError):
            parse_tgd("R(x,y), S(y,z)")

    def test_comment_stripped(self):
        tgd = parse_tgd("R(x,y) -> S(y,z)  % a comment")
        assert tgd.head[0].predicate.name == "S"


class TestParseFact:
    def test_trailing_dot_optional(self):
        assert parse_fact("R(a,b).") == parse_fact("R(a,b)")

    def test_variables_rejected(self):
        with pytest.raises(ParseError):
            parse_fact("R(?x, a).")


class TestParsePrograms:
    def test_parse_rules_skips_comments_and_blank_lines(self):
        rules = parse_rules(
            """
            % header comment
            R(x,y) -> S(y,z)

            # another comment
            S(x,y) -> T(x)
            """
        )
        assert len(rules) == 2

    def test_parse_rules_reports_line_numbers(self):
        with pytest.raises(ParseError) as excinfo:
            parse_rules("R(x,y) -> S(y,z)\nbroken line\n")
        assert excinfo.value.line_number == 2

    def test_parse_database(self):
        database = parse_database("R(a,b).\nS(c).\n")
        assert len(database) == 2

    def test_parse_database_arity_conflict_detected(self):
        with pytest.raises(Exception):
            parse_database("R(a,b).\nR(a).\n")

    def test_shared_schema_canonicalizes_predicates(self):
        schema = Schema()
        rules = parse_rules("R(x,y) -> S(y,z)", schema=schema)
        database = parse_database("R(a,b).", schema=schema)
        assert next(iter(database)).predicate in rules.schema()

    def test_load_from_files(self, tmp_path):
        rule_path = tmp_path / "rules.txt"
        rule_path.write_text("R(x,y) -> S(y,z)\n")
        fact_path = tmp_path / "facts.txt"
        fact_path.write_text("R(a,b).\n")
        assert len(load_rules(rule_path)) == 1
        assert len(load_database(fact_path)) == 1

    def test_duplicate_rules_are_collapsed(self):
        rules = parse_rules("R(x,y) -> S(y,z)\nR(x,y) -> S(y,z)")
        assert len(rules) == 1


# --------------------------------------------------------------------- #
# The scanner contract: what one line yields.  An expected value is the
# list of parsed items as ``repr`` strings (``[]``: the line is skipped) or
# ``ParseError``.  Every outcome is the pre-scanner parser's, except the rows
# marked "was:", which changed on purpose.

FACT_LINES = [
    ("R(a,b).", ["R(a, b)"]),
    ("R(a,b)", ["R(a, b)"]),
    ("R (a) .", ["R(a)"]),
    ("R(a)..", ["R(a)"]),
    ("R(a). .", ParseError),
    ("R().", ["R()"]),
    ("R( ).", ["R()"]),
    ("R(a).\r\n", ["R(a)"]),
    # comment prefixes: cut outside quotes, content inside them
    ('R("100%",b). % trailing', ["R(100%, b)"]),
    ("R(\"x#y\",'p//q') // comment", ["R(x#y, p//q)"]),
    ('R(a). # an "unbalanced quote in a comment', ["R(a)"]),
    ("R(a/b).", ["R(a/b)"]),
    ("R(a//b).", ParseError),
    # quotes
    ('R("dangling % rest', ParseError),
    ("R('dangling).", ParseError),
    ("R(\"a\"\"b\", 'it''s').", ["R(a\"b, it's)"]),
    ('R("a"b).', ['R("a"b)']),
    ('R("a, b").', ["R(a, b)"]),
    ('R("").', ParseError),
    ('"odd, name"(a).', ['"odd, name"(a)']),
    ('"a(b"(c).', ParseError),
    # parentheses
    ("R(f(a,b),c).", ["R(f(a,b), c)"]),
    ("R((a)).", ["R((a))"]),
    ("R(a)(b).", ParseError),
    ("R(a(b).", ParseError),
    ("R(a)).", ParseError),
    ("R(a,b", ParseError),
    ("R a,b)", ParseError),
    ("(a,b).", ParseError),
    ("Rab.", ParseError),
    # one fact per line, nothing after it
    ("R(a) junk.", ParseError),
    ("R(a). S(b).", ParseError),
    ("R(a), S(b).", ParseError),
    ("R(a),", ParseError),
    # arrows are plain text on a fact line
    ("R(a->b).", ["R(a->b)"]),
    ("R(?x).", ParseError),
    # lines that hold nothing
    ("", []),
    ("   \t", []),
    ("% only a comment", []),
    ("  # indented comment", []),
    ("// slashes", []),
    ("...", ParseError),
    # empty arguments — was: silently dropped (R(a, b), R(a), R(a))
    ("R(a,,b).", ParseError),
    ("R(a,).", ParseError),
    ("R(,a).", ParseError),
    ("R(,).", ParseError),
    # a structural character outside quotes is never part of a name —
    # was: everything before the first "(" was taken as the name
    (",R(a).", ParseError),
    (")R(a).", ParseError),
    ('R"(a).', ParseError),
]

RULE_LINES = [
    ("R(x,y) -> S(y,z)", ["R(?x, ?y) -> S(?y, ?z)"]),
    ("R(x,y), S(y) => T(x,z), U(z).", ["R(?x, ?y), S(?y) -> T(?x, ?z), U(?z)"]),
    ("S(y,z) :- R(x,y)", ["R(?x, ?y) -> S(?y, ?z)"]),
    ("T(x), U(x) :- R(x), S(x).", ["R(?x), S(?x) -> T(?x), U(?x)"]),
    ("R(x,y) -> S(y,z)\r\n", ["R(?x, ?y) -> S(?y, ?z)"]),
    ("R(x) -> S(x)  % then -> T(x)", ["R(?x) -> S(?x)"]),
    ("R(x) -> S() # nullary head", ["R(?x) -> S()"]),
    ("R(f(x,y)) -> S(x)", ["R(?f(x,y)) -> S(?x)"]),
    # a stray comma between atoms is tolerated, inside an atom it is not
    ("R(x), -> S(x)", ["R(?x) -> S(?x)"]),
    (", R(x),, T(x) -> S(x),", ["R(?x), T(?x) -> S(?x)"]),
    ("R(x,) -> S(x)", ParseError),  # was: R(?x) -> S(?x)
    # exactly one arrow, at the top level
    ("R(x,y), S(y,z)", ParseError),
    ("R(x) -> S(x) -> T(x)", ParseError),
    ("R(x) -> S(x) :- T(x)", ParseError),
    ("R(x -> y) -> S(x)", ParseError),
    ("R(x) :-> S(x)", ParseError),
    ("R(x -> S(x)", ParseError),
    ("-> S(x)", ParseError),
    ("R(x) ->", ParseError),
    ("R(x) -> .", ParseError),
    ("->", ParseError),
    # quotes hide an arrow; what they quote is still a constant
    ('R("->") -> S(x)', ParseError),
    ('R(x) -> S(?"=>")', ['R(?x) -> S(?"=>")']),
    # was: ParseError — the arrow used to be searched for quote-blind
    ('"a->b"(x) -> S(x)', ['"a->b"(?x) -> S(?x)']),
    ('R(?"a->b") -> S(x)', ['R(?"a->b") -> S(?x)']),
    # was: accepted, the second arrow read as part of a name or a variable
    ("R(x) -> S=>T(x)", ParseError),
    ("R(x=>y) -> S(x)", ParseError),
    # atoms
    ("R(x) junk -> S(x)", ParseError),
    ("Rx -> S(x)", ParseError),
    ("R(x)(y) -> S(x)", ParseError),
    ("R(x) S(x) -> T(x)", ParseError),
    ("R(x) -> S(x). T(x)", ParseError),
    ('R(x) -> S("dangling)', ParseError),
    # constants and schema conflicts — was: an unwrapped ValidationError
    ("R(x) -> S('a')", ParseError),
    ("R(x) -> R(x,y)", ParseError),
    # lines that hold nothing
    ("", []),
    ("% R(x) -> S(x)", []),
    ("   // R(x) -> S(x)", []),
    ("...", ParseError),
]


def outcome(parse, text):
    try:
        return [repr(item) for item in parse(text)]
    except ParseError:
        return ParseError


class TestScannerContract:
    @pytest.mark.parametrize("line, expected", FACT_LINES)
    def test_fact_line(self, line, expected):
        assert outcome(parse_database, line) == expected

    @pytest.mark.parametrize("line, expected", RULE_LINES)
    def test_rule_line(self, line, expected):
        assert outcome(parse_rules, line) == expected

    @pytest.mark.parametrize("line, expected", FACT_LINES)
    def test_single_fact_entry_point_agrees(self, line, expected):
        if expected == []:
            expected = ParseError  # a blank line is not a fact
        assert outcome(lambda text: [parse_fact(text)], line) == expected

    def test_errors_carry_the_line_number_past_blank_and_comment_lines(self):
        program = "% header\n\nR(x) -> S(x)\n  # note\nR(x) -> -> S(x)\n"
        with pytest.raises(ParseError) as excinfo:
            parse_rules(program)
        assert excinfo.value.line_number == 5
        assert excinfo.value.line == "R(x) -> -> S(x)"

    def test_labels_are_line_numbers(self):
        rules = parse_rules("% header\nR(x) -> S(x)\n\nS(x) -> T(x)\n")
        assert [tgd.label for tgd in rules] == ["r2", "r4"]

    def test_file_handles_are_streamed_line_by_line(self):
        rules = parse_rules(io.StringIO("R(x) -> S(x)\n% c\nS(x) -> T(x)\n"))
        assert [tgd.label for tgd in rules] == ["r1", "r3"]
        database = parse_database(line for line in ["R(a).\n", "\n", "S(b)\n"])
        assert sorted(map(repr, database)) == ["R(a)", "S(b)"]

    def test_predicates_are_shared_within_one_call(self):
        first, second, third = parse_rules("R(x,y) -> S(y,z)\nS(x,y) -> R(y,x)\nR(x,y) -> T(y)")
        assert first.rule.body[0][0] is second.rule.head[0][0]
        assert first.body[0].predicate is second.head[0].predicate
        # A repeated atom text compiles to the same slots over the same names.
        assert third.rule.body == first.rule.body and third.rule.names == first.rule.names

    def test_rules_sharing_a_body_share_its_numbering_but_not_their_existentials(self):
        text = "R(x,y), S(y,z) -> T(w,x)\nR(x,y), S(y,z) -> T(u,v), U(v,z)\nR(x,y), S(y,z) -> U(z,x)"
        first, second, third = (tgd.rule for tgd in parse_rules(text))
        assert first.body is second.body is third.body and first.names is second.names
        assert (first.existentials, second.existentials, third.existentials) == (("w",), ("u", "v"), ())
        assert second.head[1][1] == (~1, 2)
        for line, rule in zip(text.splitlines(), (first, second, third)):
            alone = parse_tgd(line).rule
            assert (rule, rule.names, rule.existentials) == (alone, alone.names, alone.existentials)

    def test_parse_atom_reads_no_comments_and_no_trailing_dot(self):
        assert repr(parse_atom("R(a%b)", as_variable=False)) == "R(a%b)"
        with pytest.raises(ParseError):
            parse_atom("R(a).", as_variable=False)
        with pytest.raises(ParseError):
            parse_atom("R(a), S(b)")

    def test_without_a_schema_nothing_is_canonicalized(self):
        tgd = parse_tgd("R(x) -> R(x,y)")
        assert [atom.arity for atom in tgd.body + tgd.head] == [1, 2]


class TestByteOrderMark:
    def test_string_entry_points_drop_a_leading_bom(self):
        assert outcome(parse_rules, "\ufeffR(x) -> S(x)") == ["R(?x) -> S(?x)"]
        assert outcome(parse_database, "\ufeffR(a).") == ["R(a)"]

    def test_files_with_and_without_a_bom_load_alike(self, tmp_path):
        rules, facts = "R(x,y) -> S(y,z)\n", "R(a,b).\n"
        for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
            (tmp_path / f"{name}.rules").write_text(rules, encoding=encoding)
            (tmp_path / f"{name}.facts").write_text(facts, encoding=encoding)
        assert load_rules(tmp_path / "bom.rules") == load_rules(tmp_path / "plain.rules")
        assert set(load_database(tmp_path / "bom.facts")) == set(
            load_database(tmp_path / "plain.facts")
        )


class TestSchemaErrorsAreLocated:
    def test_arity_conflict_across_rule_lines(self):
        with pytest.raises(ParseError, match="arity") as excinfo:
            parse_rules("R(x,y) -> S(y)\nS(x) -> R(x)\n")
        assert excinfo.value.line_number == 2

    def test_constant_in_a_rule(self):
        with pytest.raises(ParseError, match="constant-free") as excinfo:
            parse_rules("\nR(x) -> S('a')\n")
        assert excinfo.value.line_number == 2

    def test_arity_conflict_across_fact_lines(self):
        with pytest.raises(ParseError, match="arity") as excinfo:
            parse_database("R(a,b).\n% c\nR(a).\n")
        assert excinfo.value.line_number == 3


# --------------------------------------------------------------------- #
# Linear time: the token patterns cannot backtrack, and no input makes the
# scan revisit a character.  Doubling a pathological line must not do worse
# than triple its time.

PATHOLOGICAL_LINES = {
    "unterminated quote": lambda n: '"' + "a" * n,
    "open parentheses": lambda n: "(" * n,
    "long argument list": lambda n: "R(" + "a," * n + "a).",
    "comment characters": lambda n: "R(a). %" + "%" * n,
    "empty quoted arguments": lambda n: "R(" + '"",' * n,
    "an unclosed argument with a long gap": lambda n: "R(a" + " " * n + "x",
}

# Rule lines the plain-line recogniser reads far before it declines.
PATHOLOGICAL_RULE_LINES = {
    "many body atoms": lambda n: "R(x), " * n + "!",
    "many head atoms": lambda n: "R(x) -> " + "S(x), " * n + "!",
    "an unclosed argument list": lambda n: "R(" + "x, " * n + "!",
}


def best_of_each(repeats, function, small, large):
    """The best CPU time of *function* on *small* and on *large*.

    ``time.thread_time`` counts only this thread's CPU time, so time spent
    descheduled on a loaded host is not charged to the parse; the repeats
    alternate between the two inputs, so a burst of load hits both sides.
    As in :mod:`timeit`, the collector is off while the clock runs: a full
    collection walks every object the test session holds, and the large
    input, which promotes twice the objects, would trigger it more often.
    One untimed call of each input comes first, to warm the caches.
    """
    best = [float("inf"), float("inf")]
    function(small)
    function(large)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for index, argument in enumerate((small, large)):
                started = time.thread_time()
                function(argument)
                best[index] = min(best[index], time.thread_time() - started)
    finally:
        if enabled:
            gc.enable()
    return best


def doubling_report(small_s, large_s):
    """What a failed doubling bound prints: both best times and their ratio."""
    return (
        f"best thread_time: small {small_s:.6f} s, large {large_s:.6f} s, "
        f"ratio {large_s / small_s if small_s else float('inf'):.2f}"
    )


class TestLinearTime:
    @pytest.mark.parametrize("shape", sorted(PATHOLOGICAL_LINES))
    def test_doubling_the_line_at_most_triples_the_time(self, shape):
        def kind(text):
            result = outcome(parse_database, text)
            return result if result is ParseError else len(result)

        small, large = (PATHOLOGICAL_LINES[shape](n) for n in (100_000, 200_000))
        assert kind(small) == kind(large)
        # Below a millisecond the clock measures the interpreter, not the scan.
        small_s, large_s = best_of_each(5, kind, small, large)
        assert large_s < 3 * max(small_s, 1e-3), doubling_report(small_s, large_s)

    @pytest.mark.parametrize("shape", sorted(PATHOLOGICAL_RULE_LINES))
    def test_doubling_a_rule_line_at_most_triples_the_time(self, shape):
        def kind(text):
            return outcome(parse_rules, text)

        small, large = (PATHOLOGICAL_RULE_LINES[shape](n) for n in (20_000, 40_000))
        assert kind(small) == kind(large) == ParseError
        small_s, large_s = best_of_each(5, kind, small, large)
        assert large_s < 3 * max(small_s, 1e-3), doubling_report(small_s, large_s)


PLAIN_RULES = "R(x,y) -> S(y,z)\nS(x, y), T(y) => R(y, ?x).\n T(x) -> U() \n"
PLAIN_FACTS = "R(a,b).\nS(c, d)\nT(1) .\nU().\n"


class TestPlainLines:
    """Plain lines, as the CLI reads them from files, never reach the scanner."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        scan = parser._scan

        def counted(*args, **kwargs):
            calls.append(args[0])
            return scan(*args, **kwargs)

        monkeypatch.setattr(parser, "_scan", counted)
        return calls

    @pytest.fixture
    def files(self, tmp_path):
        paths = {}
        for name, text in (("rules", PLAIN_RULES), ("facts", PLAIN_FACTS)):
            for ending in ("\n", "\r\n"):
                path = tmp_path / f"{name}{len(ending)}.txt"
                path.write_bytes(text.replace("\n", ending).encode("utf-8"))
                paths[name, ending] = path
        return paths

    def test_plain_files_make_no_scan(self, scans, files):
        for ending in ("\n", "\r\n"):
            assert len(load_rules(files["rules", ending])) == 3
            assert len(load_database(files["facts", ending])) == 4
        assert scans == []

    def test_plain_lines_with_crlf_endings_make_no_scan(self, scans):
        rules = parse_rules(PLAIN_RULES.replace("\n", "\r\n").splitlines(keepends=True))
        facts = parse_database(PLAIN_FACTS.replace("\n", "\r\n").splitlines(keepends=True))
        assert (len(rules), len(facts)) == (3, 4)
        assert scans == []

    def test_a_crlf_file_parses_equal_to_the_lf_file(self, files):
        assert load_rules(files["rules", "\r\n"]) == load_rules(files["rules", "\n"])
        assert set(load_database(files["facts", "\r\n"])) == set(
            load_database(files["facts", "\n"])
        )
