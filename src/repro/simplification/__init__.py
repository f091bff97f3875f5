"""Shapes, specializations, static and dynamic simplification of linear TGDs."""

from .dynamic import (
    DynamicSimplificationResult,
    dynamic_simplification,
    resume_dynamic_simplification,
)
from .plans import TransferPlan
from .shapes import (
    Shape,
    count_shapes,
    database_of_shapes,
    identifier_tuple,
    identifier_tuples_of_arity,
    is_identifier_tuple,
    resolve_shapes,
    shape_of_atom,
    shapes_of_database,
    shapes_of_predicate,
    shapes_of_schema,
    simplify_atom,
    simplify_database,
    simplify_instance,
    unique_tuple,
)
from .static import (
    simplifications_of_tgd,
    static_simplification,
    static_simplification_size,
)

__all__ = [
    "DynamicSimplificationResult",
    "Shape",
    "TransferPlan",
    "count_shapes",
    "database_of_shapes",
    "dynamic_simplification",
    "identifier_tuple",
    "identifier_tuples_of_arity",
    "is_identifier_tuple",
    "resolve_shapes",
    "resume_dynamic_simplification",
    "shape_of_atom",
    "shapes_of_database",
    "shapes_of_predicate",
    "shapes_of_schema",
    "simplifications_of_tgd",
    "simplify_atom",
    "simplify_database",
    "simplify_instance",
    "static_simplification",
    "static_simplification_size",
    "unique_tuple",
]
