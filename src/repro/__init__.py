"""repro — semi-oblivious chase termination for linear existential rules.

A from-scratch Python reproduction of the system evaluated in
"Semi-Oblivious Chase Termination for Linear Existential Rules: An
Experimental Study" (Calautti, Milani, Pieris — VLDB 2023): the logical core
(TGDs, chase, dependency graphs), the practical termination checkers
``IsChaseFinite[SL]`` and ``IsChaseFinite[L]``, the data and TGD generators,
the literature scenarios, and the full experiment harness that regenerates
every figure and table of the paper's evaluation.

Quickstart
----------
>>> from repro import parse_rules, parse_database, is_chase_finite_sl
>>> rules = parse_rules("R(x,y) -> R(y,z)")
>>> database = parse_database("R(a,b).")
>>> bool(is_chase_finite_sl(database, rules))
False
"""

from .chase import (
    ChaseLimits,
    ChaseResult,
    ObliviousChase,
    RestrictedChase,
    SemiObliviousChase,
    chase,
    chase_size_bound,
    satisfies,
)
from .core import (
    Atom,
    Constant,
    Database,
    Instance,
    Null,
    Position,
    Predicate,
    Schema,
    TGD,
    TGDSet,
    Variable,
    induced_database,
    load_database,
    load_rules,
    parse_database,
    parse_rules,
    serialize_database,
    serialize_rules,
)
from .graph import (
    DependencyGraph,
    build_dependency_graph,
    find_special_sccs,
)
from .simplification import (
    Shape,
    dynamic_simplification,
    shape_of_atom,
    shapes_of_database,
    simplify_atom,
    simplify_database,
    static_simplification,
)
from .storage import (
    InDatabaseShapeFinder,
    InMemoryShapeFinder,
    PrefixView,
    RelationalDatabase,
)
from .termination import (
    TerminationReport,
    TimingBreakdown,
    is_chase_finite_l,
    is_chase_finite_materialization,
    is_chase_finite_sl,
)

__version__ = "1.0.0"

__all__ = [
    "Atom",
    "ChaseLimits",
    "ChaseResult",
    "Constant",
    "Database",
    "DependencyGraph",
    "InDatabaseShapeFinder",
    "InMemoryShapeFinder",
    "Instance",
    "Null",
    "ObliviousChase",
    "Position",
    "Predicate",
    "PrefixView",
    "RelationalDatabase",
    "RestrictedChase",
    "Schema",
    "SemiObliviousChase",
    "Shape",
    "TGD",
    "TGDSet",
    "TerminationReport",
    "TimingBreakdown",
    "Variable",
    "build_dependency_graph",
    "chase",
    "chase_size_bound",
    "dynamic_simplification",
    "find_special_sccs",
    "induced_database",
    "is_chase_finite_l",
    "is_chase_finite_materialization",
    "is_chase_finite_sl",
    "load_database",
    "load_rules",
    "parse_database",
    "parse_rules",
    "satisfies",
    "serialize_database",
    "serialize_rules",
    "shape_of_atom",
    "shapes_of_database",
    "simplify_atom",
    "simplify_database",
    "static_simplification",
    "__version__",
]
