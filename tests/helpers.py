"""Shared test helpers and hypothesis strategies.

The strategies generate *small* random databases and (simple-)linear TGD
sets: the property-based tests compare the acyclicity-based termination
checkers against actually running the semi-oblivious chase, so inputs must
stay small enough for the ground-truth chase to finish quickly whenever it
terminates.
"""

from __future__ import annotations

import re
from typing import List

from hypothesis import strategies as st

import repro.core.parser as parser_module
from repro.core.atoms import Atom
from repro.core.instances import Database
from repro.core.predicates import Predicate
from repro.core.terms import Constant, Null, Variable
from repro.core.tgds import TGD, TGDSet

#: Small, fixed vocabulary keeps the search space dense with interesting cases.
PREDICATE_POOL = [Predicate("P", 1), Predicate("Q", 2), Predicate("R", 2), Predicate("S", 3)]
CONSTANT_POOL = [Constant(name) for name in ("a", "b", "c")]
VARIABLE_POOL = [Variable(name) for name in ("x1", "x2", "x3")]
EXISTENTIAL_POOL = [Variable(name) for name in ("z1", "z2", "z3")]


#: Null keys ``(rule index, witness, existential variable)`` paired with the
#: name ``NullFactory`` has always minted for them, written out literally:
#: the names are persisted in sqlite files and compared across engines, so a
#: drift in the key rendering or the digest must fail without the old code
#: around.  Covers the empty witness, the one-pair (trailing-comma) tuple,
#: a ``Null`` image, and names with ``'``, ``"``, both quotes, a backslash,
#: a newline and non-ASCII characters.
GOLDEN_NULL_NAMES = (
    ((0, (), "z"), "n_5975553fa6ce9cf965"),
    ((3, ((Variable("x"), Constant("a")),), "z"), "n_bc97c2be6eeb6ec23b"),
    (
        (
            12,
            ((Variable("x"), Constant("a")), (Variable("y"), Null("n_87d76f44a361da459c"))),
            "z1",
        ),
        "n_6668bf40dfd26ea948",
    ),
    (
        (
            1,
            (
                (Variable("x"), Constant("it's")),
                (Variable("y"), Constant('say "hi"')),
                (Variable("z"), Constant("both ' and \"")),
            ),
            "w",
        ),
        "n_e82053d224175afe4b",
    ),
    (
        (
            7,
            (
                (Variable("u"), Constant("back\\slash")),
                (Variable("v"), Constant("new\nline")),
                (Variable("w"), Constant("naïve-Ω")),
            ),
            "é",
        ),
        "n_5d00d9e6917cb770ec",
    ),
)


def chase_result_fingerprint(result) -> tuple:
    """Everything the chase determinism claim covers, null names included.

    The single definition shared by the parallel-executor tests, the
    edge-case grid, and the property-based conformance suite: if the claim's
    surface ever grows (a new ``ChaseResult`` field that must be identical
    across worker counts), extend it here once.
    """
    return (
        result.terminated,
        result.stop_reason,
        result.rounds,
        result.triggers_fired,
        result.atoms_created,
        tuple(sorted(str(atom) for atom in result.instance)),
    )


def revert_quote_aware_comments(monkeypatch) -> None:
    """Re-inject the bug the fuzzer once found: comments cut quoted constants.

    The fault-injection seam of the fuzz tests.  The fact scanner's token
    pattern is swapped for one without the quote characters, so the scanner
    never enters a quote and ``%``, ``#`` or ``//`` end the line wherever
    they stand — ``P("100%").`` is cut down to ``P("100``.
    """
    monkeypatch.setattr(parser_module, "_FACT_TOKENS", re.compile(r"[(),%#]|//"))


@st.composite
def predicates(draw):
    """Draw a predicate from the small pool."""
    return draw(st.sampled_from(PREDICATE_POOL))


@st.composite
def facts(draw):
    """Draw a single ground fact over the constant pool."""
    predicate = draw(predicates())
    terms = tuple(draw(st.sampled_from(CONSTANT_POOL)) for _ in range(predicate.arity))
    return Atom(predicate, terms)


@st.composite
def databases(draw, min_size=1, max_size=5):
    """Draw a small database."""
    atoms = draw(st.lists(facts(), min_size=min_size, max_size=max_size))
    database = Database()
    for atom in atoms:
        database.add(atom)
    return database


@st.composite
def linear_tgds(draw, simple=False):
    """Draw a single linear TGD over the small vocabulary.

    When *simple* is true the body variables are pairwise distinct; otherwise
    body positions may repeat variables.  Heads reuse body variables or
    introduce existential variables; at least one head position reuses a body
    variable so the frontier is non-empty (the paper's standing assumption).
    """
    body_predicate = draw(predicates())
    head_predicate = draw(predicates())
    if simple:
        body_terms = tuple(VARIABLE_POOL[:body_predicate.arity])
    else:
        body_terms = tuple(
            draw(st.sampled_from(VARIABLE_POOL[: max(1, body_predicate.arity)]))
            for _ in range(body_predicate.arity)
        )
    body_variables = list(dict.fromkeys(body_terms))
    head_terms: List = []
    for _ in range(head_predicate.arity):
        if draw(st.booleans()):
            head_terms.append(draw(st.sampled_from(EXISTENTIAL_POOL)))
        else:
            head_terms.append(draw(st.sampled_from(body_variables)))
    if all(term in EXISTENTIAL_POOL for term in head_terms):
        index = draw(st.integers(min_value=0, max_value=len(head_terms) - 1))
        head_terms[index] = body_variables[0]
    return TGD((Atom(body_predicate, body_terms),), (Atom(head_predicate, tuple(head_terms)),))


@st.composite
def linear_tgd_sets(draw, simple=False, min_size=1, max_size=4):
    """Draw a small set of (simple-)linear TGDs."""
    tgds = draw(st.lists(linear_tgds(simple=simple), min_size=min_size, max_size=max_size))
    return TGDSet(tgds)
