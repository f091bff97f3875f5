"""Logical core: terms, atoms, predicates, TGDs, instances, parsing."""

from .atoms import Atom, match_atom, positions_of, schema_of, variables_of
from .instances import Database, Instance, induced_database
from .parser import (
    load_database,
    load_rules,
    parse_atom,
    parse_database,
    parse_fact,
    parse_rules,
    parse_tgd,
)
from .predicates import Position, Predicate, Schema
from .serializer import (
    dump_database,
    dump_rules,
    serialize_atom,
    serialize_database,
    serialize_fact,
    serialize_rules,
    serialize_tgd,
)
from .terms import (
    Constant,
    Null,
    NullFactory,
    Term,
    Variable,
    constants,
    is_constant,
    is_ground,
    is_null,
    is_variable,
    variables,
)
from .tgds import TGD, TGDSet

__all__ = [
    "Atom",
    "Constant",
    "Database",
    "Instance",
    "Null",
    "NullFactory",
    "Position",
    "Predicate",
    "Schema",
    "TGD",
    "TGDSet",
    "Term",
    "Variable",
    "constants",
    "dump_database",
    "dump_rules",
    "induced_database",
    "is_constant",
    "is_ground",
    "is_null",
    "is_variable",
    "load_database",
    "load_rules",
    "match_atom",
    "parse_atom",
    "parse_database",
    "parse_fact",
    "parse_rules",
    "parse_tgd",
    "positions_of",
    "schema_of",
    "serialize_atom",
    "serialize_database",
    "serialize_fact",
    "serialize_rules",
    "serialize_tgd",
    "variables",
    "variables_of",
]
