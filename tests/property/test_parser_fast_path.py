"""The plain-line recogniser against the scanner.

``repro.core.parser`` reads a rule or fact line through the plain-line
recogniser first and hands every line it declines to ``_scan``, the one
reader of the full grammar.  This suite holds that on every line the
recogniser either declines (``None``) or returns exactly what ``_scan``
builds from the same line — the same atoms, sides and rows, the same
compiled rule, or the same schema error — over the scanner-contract tables
of ``tests/core/test_parser.py`` and hypothesis-drawn lines over an alphabet
heavy in structural characters.  A second suite holds the two forms of a
parsed ``TGD`` to each other: re-building it from its decoded atoms gives an
equal compiled rule, an equal hash and the same serialized text.

Run with ``HYPOTHESIS_PROFILE=ci`` for the pinned 200-example sweep.
"""

from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.atoms import Atom
from repro.core.parser import (
    _FACT_TOKENS,
    _RULE_TOKENS,
    _AtomBuilder,
    _plain_fact,
    _plain_rule,
    _scan,
    parse_rules,
)
from repro.core.predicates import Schema
from repro.core.rules import compile_rule
from repro.core.serializer import serialize_rules
from repro.core.terms import Constant, Variable
from repro.core.tgds import TGD, TGDSet
from repro.exceptions import ParseError, ValidationError
from repro.fuzz.corpus import load_corpus
from repro.generators import generate_tgds, make_schema
from tests.core.test_parser import FACT_LINES, RULE_LINES
from tests.property.strategies import general_tgds

CORPUS = Path(__file__).resolve().parents[1] / "regressions" / "corpus"

#: Pieces a drawn line is made of: plain names, arguments and separators,
#: and the characters that must send a line to the scanner (a repeated
#: piece is drawn more often).
PIECES = (
    "R", "S1", "p_2", "x", "y1", "?z", "a", "(", ")", "(", ")", ",", ", ", " ", "\t",
    "->", " -> ", "=>", ":-", ".", "..", "\n", "\r\n", "\r", '"', "'", "%", "#", "//",
    ":", "-", ">", "=", "!", "é", " ",
)
#: Single characters for the unstructured draw.
ALPHABET = "Rx?_1(),. \t->=:%#/\"'\r\né"


def _outcome(read, line, as_variable):
    """What *read* makes of *line* with a fresh builder: its value, or the
    ``(type, message)`` of the schema error it raised."""
    builder = _AtomBuilder(as_variable, Schema())
    try:
        return read(line, builder)
    except ValidationError as error:
        return (type(error), str(error))


def _scanned(line, tokens, as_variable, rule):
    builder = _AtomBuilder(as_variable, Schema())
    build = builder.atom if rule else builder.row
    try:
        return _scan(line, tokens, build, rule)
    except ParseError:
        return ParseError
    except ValidationError as error:
        return (type(error), str(error))


def check_rule_line(line):
    recognised = _outcome(_plain_rule, line, True)
    if recognised is None:
        return False
    scanned = _scanned(line, _RULE_TOKENS, True, True)
    if not isinstance(recognised, list):  # the same schema error
        assert recognised == scanned
        return True
    # The recogniser reads (predicate, variable names); the scanner, atoms.
    assert scanned == [
        [Atom(predicate, map(Variable, names)) for predicate, names in side]
        for side in recognised
    ]
    body, head = recognised
    assert body and head
    compiled = compile_rule(body, head, "r1")
    rebuilt = TGD(*scanned, label="r1").rule
    assert compiled == rebuilt
    assert (compiled.names, compiled.existentials, compiled.label) == (
        rebuilt.names, rebuilt.existentials, rebuilt.label,
    )
    return True


def check_fact_line(line):
    recognised = _outcome(_plain_fact, line, False)
    if recognised is None:
        return False
    # One atom cannot conflict with a fresh schema: a recognised fact is a row.
    assert _scanned(line, _FACT_TOKENS, False, False) == [[recognised]]
    assert all(isinstance(term, Constant) for term in recognised[1])
    return True


@pytest.mark.parametrize("line", [line for line, _ in RULE_LINES])
def test_rule_table_lines(line):
    check_rule_line(line)


@pytest.mark.parametrize("line", [line for line, _ in FACT_LINES])
def test_fact_table_lines(line):
    check_fact_line(line)


@pytest.mark.parametrize(
    "line",
    [
        "R(x,y) -> S(y,z)",
        "R(x,y), S(y) => T(x,z), U(z).",
        "R(x,y) -> S(y,z)\r\n",
        "  R ( x , ?y ) -> S() .. \n",
        "R(x) -> R(x,y)",  # plain, with a schema conflict the builder raises
    ],
)
def test_plain_rule_lines_are_recognised(line):
    assert check_rule_line(line)


@pytest.mark.parametrize(
    "line", ["R(a,b).", "R(a,b)", "R (a) .", "R(a)..", "R().", "R( ).", "R(a).\r\n", "R(a, b)\n"]
)
def test_plain_fact_lines_are_recognised(line):
    assert check_fact_line(line)


def _joined(parts, separators):
    """*parts* joined by separators drawn one per gap."""
    return st.lists(st.sampled_from(separators), min_size=len(parts), max_size=len(parts)).map(
        lambda gaps: "".join(part + gap for part, gap in zip(parts, gaps[:-1] + [""]))
    )


@st.composite
def near_plain_lines(draw, atom_counts, arrows):
    """Lines of atoms whose separators are mostly plain and sometimes not:
    stray or doubled commas, a missing comma, a second or Datalog arrow, a
    comment, an odd line ending."""
    pad = st.sampled_from(["", "", " ", "\t", "  "])

    def atom():
        names = draw(st.lists(st.sampled_from(["x", "y", "?z", "a1", "b_2", "3"]), max_size=3))
        arguments = draw(_joined(names, [",", ",", ", ", " ,", ",,", " "])) if names else ""
        return f"{draw(pad)}{draw(st.sampled_from(['R', 'S', 'T9']))}{draw(pad)}({arguments})"

    def side():
        atoms = [atom() for _ in range(draw(st.sampled_from(atom_counts)))]
        return draw(_joined(atoms, [",", ", ", " , ", ",,", " ", ""]))

    arrow = draw(st.sampled_from(arrows))
    ending = draw(st.sampled_from(["", ".", " ..", ". .", "\n", "\r\n", "\r", " % c", ","]))
    return f"{side()}{arrow}{side()}{ending}" if arrow else f"{side()}{ending}"


pieced_lines = st.lists(st.sampled_from(PIECES), max_size=24).map("".join)
unstructured_lines = st.text(alphabet=ALPHABET, max_size=40)


@given(near_plain_lines((1, 1, 2, 3), ("->", " -> ", "=>", " => ", ":-", "->->", "")))
def test_near_plain_rule_lines(line):
    check_rule_line(line)


@given(near_plain_lines((1, 1, 1, 2), ("", "", "", "->")))
def test_near_plain_fact_lines(line):
    check_fact_line(line)


@given(st.one_of(pieced_lines, unstructured_lines))
def test_structural_lines(line):
    check_rule_line(line)
    check_fact_line(line)


def check_rebuilt_from_atoms(text):
    """Every TGD parsed from *text*, re-built from its decoded atoms, is the
    same rule: equal compiled form, equal hash, same serialized text."""
    parsed = parse_rules(text)
    rebuilt = [TGD(tgd.body, tgd.head, label=tgd.label) for tgd in parsed]
    for tgd, again in zip(parsed, rebuilt):
        assert again.rule == tgd.rule
        assert again.rule.label == tgd.rule.label
        assert hash(again) == hash(tgd) and again == tgd
    assert serialize_rules(rebuilt) == serialize_rules(parsed) == text


@given(st.lists(general_tgds(), min_size=1, max_size=5))
def test_generated_rules_rebuild_from_their_atoms(tgds):
    check_rebuilt_from_atoms(serialize_rules(TGDSet(tgds)))


@pytest.mark.parametrize("tclass", ["SL", "L"])
def test_generator_programs_rebuild_from_their_atoms(tclass):
    schema = make_schema(12, 1, 4, seed=5)
    check_rebuilt_from_atoms(serialize_rules(generate_tgds(schema, 12, 1, 4, 60, tclass, seed=5)))


@pytest.mark.parametrize(
    "case",
    [case for case in load_corpus(CORPUS) if case.expect != "parse-error"],
    ids=lambda case: case.name,
)
def test_corpus_rules_rebuild_from_their_atoms(case):
    check_rebuilt_from_atoms(serialize_rules(parse_rules(case.rules_text)))
