"""Dependency graphs, SCC machinery, and the database-support check."""

from .dependency_graph import (
    DependencyGraph,
    Edge,
    build_dependency_graph,
    build_support_graph,
)
from .reachability import (
    extensional_predicates,
    supports,
)
from .tarjan import SCC, find_sccs, find_special_sccs

__all__ = [
    "DependencyGraph",
    "Edge",
    "SCC",
    "build_dependency_graph",
    "build_support_graph",
    "extensional_predicates",
    "find_sccs",
    "find_special_sccs",
    "supports",
]
