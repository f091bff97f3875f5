"""Parsing of rule files and database files.

The textual formats follow the conventions of existing chase tools (Graal,
ChaseBench) adapted to plain text:

* **Rules**: one TGD per line, written ``R(x,y), S(y) -> T(x,z)`` (``=>``
  works too, and ``T(x,z) :- R(x,y), S(y)`` is read head first).  Bare
  argument tokens are variables; every head variable that does not occur in
  the body is existentially quantified.  ``%``, ``#`` and ``//`` start line
  comments.
* **Facts**: one fact per line, written ``R(a, b).`` (the trailing dot is
  optional).  Constants are identifiers, numbers, or single/double quoted
  strings; inside a quoted string the quote character itself is written
  doubled (``"a""b"`` is the constant ``a"b``), and comment prefixes are
  taken literally.

The grammar is permissive: any text is a predicate name or a term, and
parentheses may nest inside an argument.  Only the *structural tokens* —
the quotes, ``(``, ``)``, ``,``, the comment prefixes and, on rule lines,
the arrows — are ever interpreted, so each line is read in **one scan**: a
compiled alternation finds the tokens, everything between two of them is
skipped in C, and a small state machine (quote, depth, current part) cuts
the comment, checks the balance, splits sides, atoms and arguments, and
slices names and argument tokens straight out of the line.

``t-parse`` is one of the quantities the paper measures, so parse time must
grow linearly with the input and never hinge on regex backtracking.  The
token patterns are alternations of fixed strings with no quantifier (one
alternative looks a single character ahead): there is nothing to backtrack
into, and the scan visits each token once.  ``tests/core/test_parser.py``
pins the linear growth on pathological lines.
"""

from __future__ import annotations

import os
import re
from typing import Dict, Iterable, List, Optional, Pattern, Union

from ..exceptions import ParseError, ValidationError
from .atoms import Atom
from .instances import Database
from .predicates import Predicate, Schema
from .terms import Constant, Term, Variable
from .tgds import TGD, TGDSet

# The structural tokens.  ``parse_atom`` reads a bare atom (no comments); a
# fact line adds the comment prefixes; a rule line adds the arrows (``:->``
# is a misplaced ``->``, not ``:-`` followed by a name that starts with ``>``).
_ATOM_TOKENS: Pattern[str] = re.compile(r"""["'(),]""")
_FACT_TOKENS: Pattern[str] = re.compile(r"""["'(),%#]|//""")
_RULE_TOKENS: Pattern[str] = re.compile(r"""["'(),%#]|//|->|=>|:-(?!>)""")
_COMMENT_PREFIXES = ("%", "#", "//")

_Lines = Union[str, Iterable[str]]
_Path = Union[str, os.PathLike]


def _parse_term(token: str, as_variable: bool) -> Term:
    """Parse a single term token as a variable (rules) or a constant (facts).

    Invalid term names (for example the empty quoted string ``""``) are
    reported as :class:`ParseError`, never as the raw ``TypeError`` the term
    constructors raise — the parser owns the input-validation contract.
    """
    try:
        if token.startswith("?"):
            return Variable(token[1:] or token)
        if token[0] in "\"'" and token[-1] == token[0] and len(token) >= 2:
            quote = token[0]
            # Doubled quote characters inside a quoted constant are the
            # quote itself: "a""b" is the constant a"b (serializer emits
            # exactly this form for quote-bearing names).
            return Constant(token[1:-1].replace(quote + quote, quote))
        if as_variable:
            return Variable(token)
        return Constant(token)
    except TypeError as error:
        raise ParseError(f"invalid term {token!r}: {error}") from error


class _AtomBuilder:
    """Builds the atoms of one ``parse_*`` call, interning as it goes: each
    distinct argument token becomes one :class:`Term`, and a predicate is
    looked up in the schema before one is constructed.  A program repeats the
    same few variables on every line; the tables live and die with the call.
    """

    __slots__ = ("as_variable", "schema", "terms")

    def __init__(self, as_variable: bool, schema: Optional[Schema]) -> None:
        self.as_variable = as_variable
        self.schema = schema
        self.terms: Dict[str, Term] = {}

    def atom(self, name: str, tokens: List[str]) -> Atom:
        terms = self.terms
        arguments = []
        for token in tokens:
            term = terms.get(token)
            if term is None:
                term = terms[token] = _parse_term(token, self.as_variable)
            arguments.append(term)
        if self.schema is None:
            return Atom(Predicate(name, len(arguments)), arguments)
        return Atom(self.schema.declare(name, len(arguments)), arguments)


def _scan(
    line: str, tokens: Pattern[str], builder: _AtomBuilder, rule: bool
) -> Optional[List[List[Atom]]]:
    """Read one line in a single pass over its structural *tokens*.

    Returns ``None`` for a blank or comment-only line, else the atoms of the
    line: one list, or ``[body, head]`` when an arrow split it (*rule* lines
    only; elsewhere a top-level comma is an error, not an atom separator).
    """
    sides: List[List[Atom]] = [[]]
    atoms = sides[0]
    arrow = None
    quote = None  # the one place that tracks quote state
    depth = 0
    start = 0  # where the current predicate name, argument or gap began
    name = ""
    arguments: List[str] = []
    closed = False  # an atom has ended since the last separator
    cut = len(line)
    for match in tokens.finditer(line):
        token = match.group()
        if quote is not None:
            if token == quote:
                quote = None
            continue
        if token == '"' or token == "'":
            quote = token
            continue
        at = match.start()
        if token == "(":
            depth += 1
            if depth == 1:
                name = line[start:at].strip()
                if closed or not name or "(" in name:  # a quoted "(" is no name either
                    raise ParseError(f"malformed atom in {line.strip()!r}")
                arguments = []
                start = at + 1
        elif token == ")":
            depth -= 1
            if depth == 0:
                argument = line[start:at].strip()
                if argument:
                    arguments.append(argument)
                elif arguments:  # R(a,) — only R() is the nullary atom
                    raise ParseError(f"empty term in {line.strip()!r}")
                atoms.append(builder.atom(name, arguments))
                closed = True
                start = at + 1
            elif depth < 0:
                raise ParseError(f"unbalanced ')' in {line.strip()!r}")
        elif token == ",":
            if depth == 1:
                argument = line[start:at].strip()
                if not argument:
                    raise ParseError(f"empty term in {line.strip()!r}")
                arguments.append(argument)
                start = at + 1
            elif depth == 0:
                if not rule or line[start:at].strip():
                    raise ParseError(f"malformed atom in {line.strip()!r}")
                closed = False
                start = at + 1
        elif token in _COMMENT_PREFIXES:
            cut = at
            break
        else:  # an arrow
            if depth or arrow is not None or line[start:at].strip():
                raise ParseError(f"misplaced {token!r} in rule {line.strip()!r}")
            arrow = token
            atoms = []
            sides.append(atoms)
            closed = False
            start = match.end()
    if quote is not None:
        raise ParseError(f"unterminated quote in {line.strip()!r}")
    if depth:
        raise ParseError(f"unbalanced '(' in {line.strip()!r}")
    # The trailing dot(s) of a fact or rule line sit in the last gap.
    if line[start:cut].strip().rstrip(".").strip():
        raise ParseError(f"malformed atom in {line.strip()!r}")
    if arrow is None and not atoms and not line[:cut].strip():
        return None
    if arrow == ":-":  # Datalog orientation: head :- body
        sides.reverse()
    return sides


def parse_atom(text: str, as_variable: bool = True, schema: Optional[Schema] = None) -> Atom:
    """Parse a single atom like ``R(x, y)``.

    Bare identifiers are variables when *as_variable* is true (rule context)
    and constants otherwise (fact context).  A *schema*, when given,
    canonicalizes the predicate and catches arity conflicts across calls.
    """
    # The trailing dot belongs to fact and rule *lines*, not to a bare atom.
    sides = None
    if text.rstrip().endswith(")"):
        sides = _scan(text, _ATOM_TOKENS, _AtomBuilder(as_variable, schema), False)
    if sides is None:
        raise ParseError(f"malformed atom {text.strip()!r}")
    return sides[0][0]


def _tgd(line: str, builder: _AtomBuilder, label: Optional[str]) -> Optional[TGD]:
    """The TGD on *line*, or ``None`` for a blank or comment-only line."""
    sides = _scan(line, _RULE_TOKENS, builder, True)
    if sides is None:
        return None
    if len(sides) != 2:
        raise ParseError(f"no implication arrow in rule {line.strip()!r}")
    body, head = sides
    if not body or not head:
        raise ParseError(f"rule {line.strip()!r} must have a non-empty body and head")
    return TGD(body, head, label=label)


def _fact(line: str, builder: _AtomBuilder) -> Optional[Atom]:
    """The fact on *line*, or ``None`` for a blank or comment-only line."""
    sides = _scan(line, _FACT_TOKENS, builder, False)
    if sides is None:
        return None
    if not sides[0]:
        raise ParseError(f"malformed atom {line.strip()!r}")
    atom = sides[0][0]
    if not atom.is_fact():
        raise ParseError(f"fact {line.strip()!r} contains non-constant terms")
    return atom


def parse_tgd(text: str, schema: Optional[Schema] = None, label: Optional[str] = None) -> TGD:
    """Parse a single TGD like ``R(x,y), S(y) -> T(x,z)``."""
    tgd = _tgd(text, _AtomBuilder(True, schema), label)
    if tgd is None:
        raise ParseError(f"no implication arrow in rule {text.strip()!r}")
    return tgd


def parse_fact(text: str, schema: Optional[Schema] = None) -> Atom:
    """Parse a single fact like ``R(a, b).``."""
    atom = _fact(text, _AtomBuilder(False, schema))
    if atom is None:
        raise ParseError(f"malformed atom {text.strip()!r}")
    return atom


def _lines(text_or_lines: _Lines) -> Iterable[str]:
    """The lines of a program given as one string (BOM dropped) or line by line."""
    if isinstance(text_or_lines, str):
        return text_or_lines.removeprefix("\ufeff").splitlines()
    return text_or_lines


def parse_rules(text_or_lines: _Lines, schema: Optional[Schema] = None) -> TGDSet:
    """Parse a rule program (string or iterable of lines) into a :class:`TGDSet`."""
    builder = _AtomBuilder(True, schema if schema is not None else Schema())
    tgds = TGDSet()
    for number, line in enumerate(_lines(text_or_lines), start=1):
        try:
            tgd = _tgd(line, builder, f"r{number}")
        except (ParseError, ValidationError) as error:
            # A schema conflict or a constant in a rule is an input error too.
            raise ParseError(str(error), line_number=number, line=line.strip()) from error
        if tgd is not None:
            tgds.add(tgd)
    return tgds


def parse_database(text_or_lines: _Lines, schema: Optional[Schema] = None) -> Database:
    """Parse a fact file (string or iterable of lines) into a :class:`Database`."""
    builder = _AtomBuilder(False, schema if schema is not None else Schema())
    database = Database()
    for number, line in enumerate(_lines(text_or_lines), start=1):
        try:
            atom = _fact(line, builder)
        except (ParseError, ValidationError) as error:
            raise ParseError(str(error), line_number=number, line=line.strip()) from error
        if atom is not None:
            database.add(atom)
    return database


def load_rules(path: _Path, schema: Optional[Schema] = None) -> TGDSet:
    """Parse the rule file at *path* (UTF-8, with or without a BOM)."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_rules(handle, schema=schema)


def load_database(path: _Path, schema: Optional[Schema] = None) -> Database:
    """Parse the fact file at *path* (UTF-8, with or without a BOM)."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_database(handle, schema=schema)
