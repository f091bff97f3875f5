"""Shapes, specializations, static and dynamic simplification of linear TGDs."""

from .dynamic import (
    DynamicSimplificationResult,
    dynamic_simplification,
    resume_dynamic_simplification,
)
from .plans import TransferPlan
from .shapes import (
    Shape,
    identifier_tuple,
    identifier_tuples_of_arity,
    is_identifier_tuple,
    resolve_shapes,
    shape_of_atom,
    shapes_of_database,
    shapes_of_predicate,
    simplify_atom,
    simplify_database,
    unique_tuple,
)
from .static import (
    static_simplification,
)

__all__ = [
    "DynamicSimplificationResult",
    "Shape",
    "TransferPlan",
    "dynamic_simplification",
    "identifier_tuple",
    "identifier_tuples_of_arity",
    "is_identifier_tuple",
    "resolve_shapes",
    "resume_dynamic_simplification",
    "shape_of_atom",
    "shapes_of_database",
    "shapes_of_predicate",
    "simplify_atom",
    "simplify_database",
    "static_simplification",
    "unique_tuple",
]
