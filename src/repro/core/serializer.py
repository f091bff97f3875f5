"""Serialization of rules and databases back to the textual format.

The serializer emits exactly the format accepted by :mod:`repro.core.parser`,
so that ``parse(serialize(x)) == x`` (modulo predicate canonicalization).
The experiment harness uses this to materialise generated rule sets to disk
so that ``t-parse`` — one of the paper's time parameters — measures a real
file-parsing pass rather than an in-memory no-op.
"""

from __future__ import annotations

from typing import Iterable

from ..exceptions import ValidationError
from .atoms import Atom
from .instances import Instance
from .terms import Constant, Null, Term, Variable
from .tgds import TGD

#: Characters that force quoting: atom syntax, separators, whitespace,
#: quotes, and every comment prefix character (``%``, ``#``, and the ``/``
#: of ``//`` — an unquoted ``a//b`` would be cut down to ``a`` by the
#: comment stripper before the atom parser ever saw it).
_QUOTE_FORCING = "(),.\"'%#/"


def _needs_quoting(name: str) -> bool:
    """Return ``True`` when a constant name must be quoted to parse back."""
    if not name:
        return True
    if any(ch in _QUOTE_FORCING or ch.isspace() or not ch.isprintable() for ch in name):
        return True
    return name.startswith("?")


def _quoted(name: str) -> str:
    """Quote *name* so the parser reads it back verbatim.

    The quote character inside the name is escaped by doubling it, matching
    the parser's ``"a""b"`` convention.  Line breaks cannot be represented
    in the line-based format at all and are rejected eagerly — truncating
    or mangling them silently would break the round-trip contract.
    """
    if "\n" in name or "\r" in name:
        raise ValidationError(
            f"constant name {name!r} contains a line break; the line-based "
            "rule/fact format cannot represent it"
        )
    return '"' + name.replace('"', '""') + '"'


def serialize_term(term: Term, in_rule: bool) -> str:
    """Render a single term."""
    if isinstance(term, Variable):
        return term.name if in_rule else f"?{term.name}"
    if isinstance(term, Null):
        return _quoted(f"_:{term.name}")
    if isinstance(term, Constant):
        return _quoted(term.name) if _needs_quoting(term.name) else term.name
    raise TypeError(f"cannot serialize term {term!r}")


def serialize_atom(atom: Atom, in_rule: bool = True) -> str:
    """Render a single atom, e.g. ``R(x,y)`` or ``R(a,b)``."""
    args = ",".join(serialize_term(term, in_rule) for term in atom.terms)
    return f"{atom.predicate.name}({args})"


def serialize_tgd(tgd: TGD) -> str:
    """Render a single TGD in ``body -> head`` form."""
    body = ", ".join(serialize_atom(atom, in_rule=True) for atom in tgd.body)
    head = ", ".join(serialize_atom(atom, in_rule=True) for atom in tgd.head)
    return f"{body} -> {head}"


def serialize_rules(tgds: Iterable[TGD]) -> str:
    """Render a rule program, one TGD per line."""
    return "\n".join(serialize_tgd(tgd) for tgd in tgds) + "\n"


def serialize_fact(atom: Atom) -> str:
    """Render a single fact with a trailing dot."""
    return serialize_atom(atom, in_rule=False) + "."


def serialize_database(database: Instance) -> str:
    """Render a database (or instance), one fact per line."""
    return "\n".join(serialize_fact(atom) for atom in database) + "\n"


def dump_rules(tgds: Iterable[TGD], path) -> None:
    """Write a rule program to *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_rules(tgds))


def dump_database(database: Instance, path) -> None:
    """Write a database to *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_database(database))
