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
the arrows — are ever interpreted.  Two readers share that grammar:

* the **plain-line recogniser** (``_plain_rule`` / ``_plain_fact``) takes
  the lines machines write: identifier names and identifier arguments
  (``?x`` too, in rules), spaces and tabs, one ``->``/``=>`` on a rule line,
  optional trailing dots and line ending.  One anchored compiled match per
  atom and a ``split`` (or, with whitespace, a ``findall``) over its
  argument text yield exactly the atoms (or the row) the scanner would (a
  rule's as variable names, compiled straight into a
  :class:`~repro.core.rules.CompiledRule`), and a repeated atom text or
  rule body is looked up, not read or numbered again.  Anything else —
  quotes, comments, nesting, ``:-``, stray commas, other characters,
  malformed text — it declines with ``None``, and never raises on syntax;
* the **scanner** (``_scan``) reads every declined line in one pass: a
  compiled alternation finds the tokens, everything between two of them is
  skipped in C, and a small state machine (quote, depth, current part) cuts
  the comment, checks the balance, splits sides, atoms and arguments, and
  slices names and argument tokens straight out of the line.  It is the only
  reader of the full grammar and the only source of :class:`ParseError`.

``t-parse`` is one of the quantities the paper measures, so parse time must
grow linearly with the input and never hinge on regex backtracking.  The
token patterns are alternations of fixed strings with no quantifier (one
alternative looks a single character ahead): there is nothing to backtrack
into, and the scan visits each token once.  The recogniser's patterns hold
no nested repetition, and each is anchored where the previous atom ended, so
a failed match gives back one run of one character class.
``tests/core/test_parser.py`` pins the linear growth on pathological lines,
and ``tests/property/test_parser_fast_path.py`` holds the recogniser to the
scanner.
"""

from __future__ import annotations

import os
import re
from typing import Callable, Dict, Iterable, List, Optional, Pattern, Tuple, TypeVar, Union

from ..exceptions import ParseError, ValidationError
from .atoms import Atom
from .instances import Database
from .predicates import Predicate, Schema
from .rules import CompiledRule, NumberedBody, compile_head, number_body
from .terms import Constant, Term, Variable
from .tgds import TGD, TGDSet

# The structural tokens.  ``parse_atom`` reads a bare atom (no comments); a
# fact line adds the comment prefixes; a rule line adds the arrows (``:->``
# is a misplaced ``->``, not ``:-`` followed by a name that starts with ``>``).
_ATOM_TOKENS: Pattern[str] = re.compile(r"""["'(),]""")
_FACT_TOKENS: Pattern[str] = re.compile(r"""["'(),%#]|//""")
_RULE_TOKENS: Pattern[str] = re.compile(r"""["'(),%#]|//|->|=>|:-(?!>)""")
_COMMENT_PREFIXES = ("%", "#", "//")

# The plain-line recogniser.  A rule atom ends in what follows it: a comma,
# an arrow, or the end of the line (trailing dots, then the line ending a
# file iterator leaves).  Argument text is checked by _plain_arguments.
_PLAIN_END = r"(?:\.+[ \t]*)?(?:\r?\n)?\Z"
_PLAIN_RULE_ATOM: Pattern[str] = re.compile(
    r"[ \t]*([A-Za-z0-9_]+)[ \t]*\(([A-Za-z0-9_?, \t]*)\)[ \t]*(,|->|=>|" + _PLAIN_END + ")"
)
_PLAIN_FACT: Pattern[str] = re.compile(
    r"[ \t]*([A-Za-z0-9_]+)[ \t]*\(([A-Za-z0-9_, \t]*)\)[ \t]*" + _PLAIN_END
)
_PLAIN_TOKEN: Pattern[str] = re.compile(r"[^ \t,]+")
_PLAIN_GAP: Pattern[str] = re.compile(r"[^ \t,][ \t]+[^ \t,]")  # two tokens, no comma

_Lines = Union[str, Iterable[str]]
_Item = TypeVar("_Item")
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


def _plain_arguments(text: str) -> Optional[List[str]]:
    """The argument tokens of a plain atom's argument *text* (identifier
    characters, commas, spaces and tabs only), or ``None`` when a comma is
    stray or two tokens have no comma between them.

    Without whitespace the parts between commas are the tokens.  Otherwise
    the tokens are the maximal runs between commas and whitespace, and the
    text is one token per part exactly when there is one more token than
    commas and no two tokens are apart by whitespace alone.
    """
    if not text.strip(" \t"):
        return []  # ``R()`` is the nullary atom
    if " " not in text and "\t" not in text:
        tokens = text.split(",")
        return None if "" in tokens else tokens
    tokens = _PLAIN_TOKEN.findall(text)
    commas = text.count(",")
    if len(tokens) != commas + 1 or (commas and _PLAIN_GAP.search(text)):
        return None
    return tokens


_NamedAtom = Tuple[Predicate, Tuple[str, ...]]  # a plain rule atom: its variables' names


class _AtomBuilder:
    """Builds the atoms of one ``parse_*`` call, interning as it goes: each
    distinct argument token becomes one :class:`Term`, each distinct plain
    rule atom text one ``(predicate, variable names)`` pair, each distinct
    plain rule body one :func:`~repro.core.rules.number_body`, and a
    predicate is looked up in the schema before one is constructed.  A
    program repeats the same few variables, atoms and bodies on every line;
    the tables live and die with the call.
    """

    __slots__ = ("as_variable", "schema", "terms", "atoms", "bodies")

    def __init__(self, as_variable: bool, schema: Optional[Schema]) -> None:
        self.as_variable = as_variable
        self.schema = schema
        self.terms: Dict[str, Term] = {}
        self.atoms: Dict[Tuple[str, ...], _NamedAtom] = {}
        self.bodies: Dict[Tuple[_NamedAtom, ...], NumberedBody] = {}

    def atom(self, name: str, tokens: List[str]) -> Atom:
        return Atom(*self.row(name, tokens))

    def plain_atom(self, text: Tuple[str, ...]) -> Optional[_NamedAtom]:
        """The ``(predicate, variable names)`` of a plain rule line's ``(name,
        argument text)`` (named as :func:`_parse_term` would), or ``None`` when
        the argument text is not plain.  Callers look *text* up in
        :attr:`atoms` first: this is the miss."""
        tokens = _plain_arguments(text[1])
        if tokens is None:
            return None
        names = tuple([(token[1:] or token) if token[0] == "?" else token for token in tokens])
        atom = self.atoms[text] = (self.predicate(text[0], len(names)), names)
        return atom

    def predicate(self, name: str, arity: int) -> Predicate:
        if self.schema is None:
            return Predicate(name, arity)
        return self.schema.declare(name, arity)

    def row(self, name: str, tokens: List[str]) -> Tuple[Predicate, Tuple[Term, ...]]:
        """The ``(predicate, terms)`` of the atom ``name(tokens)``."""
        terms = self.terms
        arguments = []
        for token in tokens:
            term = terms.get(token)
            if term is None:
                term = terms[token] = _parse_term(token, self.as_variable)
            arguments.append(term)
        return self.predicate(name, len(arguments)), tuple(arguments)


def _plain_rule(line: str, builder: _AtomBuilder) -> Optional[List[List[_NamedAtom]]]:
    """``[body, head]`` of a plain rule *line*, each atom as ``(predicate,
    variable names)``, or ``None`` to hand the line to :func:`_scan`.

    Atoms are built as they are recognised.  A plain prefix reads the same to
    the scanner, so a schema conflict the builder raises on one of them is the
    one the scanner would raise there too.
    """
    body: List[_NamedAtom] = []
    head: Optional[List[_NamedAtom]] = None
    atoms = body
    match = _PLAIN_RULE_ATOM.match
    interned = builder.atoms
    position = 0
    while True:
        found = match(line, position)
        if found is None:
            return None
        text = found.group(1, 2)
        atom = interned.get(text)
        if atom is None:
            atom = builder.plain_atom(text)
            if atom is None:
                return None
        atoms.append(atom)
        position = found.end()
        separator = line[position - 1]  # "," or the ">" of an arrow; the end is neither
        if separator == ",":
            continue
        if separator == ">":
            if head is not None:
                return None
            head = atoms = []
            continue
        return None if head is None else [body, head]


def _plain_fact(line: str, builder: _AtomBuilder) -> Optional[Tuple[Predicate, Tuple[Term, ...]]]:
    """The ``(predicate, terms)`` of a plain fact *line*, or ``None`` to hand
    the line to :func:`_scan`."""
    found = _PLAIN_FACT.match(line)
    if found is None:
        return None
    name, arguments = found.groups()
    tokens = _plain_arguments(arguments)
    if tokens is None:
        return None
    return builder.row(name, tokens)


def _scan(
    line: str, tokens: Pattern[str], build: Callable[[str, List[str]], _Item], rule: bool
) -> Optional[List[List[_Item]]]:
    """Read one line in a single pass over its structural *tokens*.

    Returns ``None`` for a blank or comment-only line, else the atoms of the
    line, each made by ``build(name, argument tokens)``: one list, or
    ``[body, head]`` when an arrow split it (*rule* lines only; elsewhere a
    top-level comma is an error, not an atom separator).
    """
    sides: List[List[_Item]] = [[]]
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
                atoms.append(build(name, arguments))
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
        sides = _scan(text, _ATOM_TOKENS, _AtomBuilder(as_variable, schema).atom, False)
    if sides is None:
        raise ParseError(f"malformed atom {text.strip()!r}")
    return sides[0][0]


def _rule(line: str, builder: _AtomBuilder, label: Optional[str]) -> Optional[CompiledRule]:
    """The compiled rule on *line*, or ``None`` for a blank or comment-only line."""
    plain = _plain_rule(line, builder)
    if plain is not None:
        body, head = plain
        key = tuple(body)
        numbered = builder.bodies.get(key)
        if numbered is None:
            numbered = builder.bodies[key] = number_body(body)
        return compile_head(numbered, head, label)
    sides = _scan(line, _RULE_TOKENS, builder.atom, True)
    if sides is None:
        return None
    if len(sides) != 2:
        raise ParseError(f"no implication arrow in rule {line.strip()!r}")
    body, head = sides
    if not body or not head:
        raise ParseError(f"rule {line.strip()!r} must have a non-empty body and head")
    return TGD(body, head, label=label).rule


def _fact(line: str, builder: _AtomBuilder) -> Optional[Tuple[Predicate, Tuple[Term, ...]]]:
    """The fact on *line* as ``(predicate, terms)``, or ``None`` for a blank
    or comment-only line."""
    fact = _plain_fact(line, builder)
    if fact is not None:
        return fact  # a plain fact has no "?": every term is a constant
    sides = _scan(line, _FACT_TOKENS, builder.row, False)
    if sides is None:
        return None
    if not sides[0]:
        raise ParseError(f"malformed atom {line.strip()!r}")
    fact = sides[0][0]
    if not all(isinstance(term, Constant) for term in fact[1]):
        raise ParseError(f"fact {line.strip()!r} contains non-constant terms")
    return fact


def parse_tgd(text: str, schema: Optional[Schema] = None, label: Optional[str] = None) -> TGD:
    """Parse a single TGD like ``R(x,y), S(y) -> T(x,z)``."""
    rule = _rule(text, _AtomBuilder(True, schema), label)
    if rule is None:
        raise ParseError(f"no implication arrow in rule {text.strip()!r}")
    return TGD.of(rule)


def parse_fact(text: str, schema: Optional[Schema] = None) -> Atom:
    """Parse a single fact like ``R(a, b).``."""
    fact = _fact(text, _AtomBuilder(False, schema))
    if fact is None:
        raise ParseError(f"malformed atom {text.strip()!r}")
    return Atom(*fact)


def _lines(text_or_lines: _Lines) -> Iterable[str]:
    """The lines of a program given as one string (BOM dropped) or line by line."""
    if isinstance(text_or_lines, str):
        return text_or_lines.removeprefix("\ufeff").splitlines()
    return text_or_lines


def parse_rules(text_or_lines: _Lines, schema: Optional[Schema] = None) -> TGDSet:
    """Parse a rule program (string or iterable of lines) into a :class:`TGDSet`.

    The set is filled with compiled rules, no :class:`TGD` is built.  Without
    a *schema* the parser's own schema holds exactly the predicates of the
    program, and the set serves :meth:`TGDSet.schema` from it.
    """
    declared = Schema() if schema is None else None
    builder = _AtomBuilder(True, schema if schema is not None else declared)
    tgds = TGDSet()
    add = tgds.add_rule
    for number, line in enumerate(_lines(text_or_lines), start=1):
        try:
            rule = _rule(line, builder, f"r{number}")
        except (ParseError, ValidationError) as error:
            # A schema conflict or a constant in a rule is an input error too.
            raise ParseError(str(error), line_number=number, line=line.strip()) from error
        if rule is not None:
            add(rule)
    tgds._declared = declared
    return tgds


def parse_database(text_or_lines: _Lines, schema: Optional[Schema] = None) -> Database:
    """Parse a fact file (string or iterable of lines) into a :class:`Database`.

    Facts go in as rows, one :meth:`Database.add_rows` call per predicate:
    no :class:`Atom` is built.
    """
    builder = _AtomBuilder(False, schema if schema is not None else Schema())
    rows: Dict[Predicate, List[Tuple[Term, ...]]] = {}
    for number, line in enumerate(_lines(text_or_lines), start=1):
        try:
            fact = _fact(line, builder)
        except (ParseError, ValidationError) as error:
            raise ParseError(str(error), line_number=number, line=line.strip()) from error
        if fact is not None:
            predicate, terms = fact
            group = rows.get(predicate)
            if group is None:
                rows[predicate] = [terms]
            else:
                group.append(terms)
    database = Database()
    for predicate, group in rows.items():
        database.add_rows(predicate, group)
    return database


def load_rules(path: _Path, schema: Optional[Schema] = None) -> TGDSet:
    """Parse the rule file at *path* (UTF-8, with or without a BOM)."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_rules(handle, schema=schema)


def load_database(path: _Path, schema: Optional[Schema] = None) -> Database:
    """Parse the fact file at *path* (UTF-8, with or without a BOM)."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_database(handle, schema=schema)
