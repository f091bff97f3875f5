"""Chase engines (oblivious, semi-oblivious, restricted), trigger matching, and size bounds."""

from .bounds import bell_number, chase_size_bound, static_simplification_size_bound
from .engine import (
    BACKENDS,
    ENGINE_CLASSES,
    ChaseEngine,
    ObliviousChase,
    RestrictedChase,
    SemiObliviousChase,
    chase,
    resolve_engine_class,
    satisfies,
)
from .matching import (
    STRATEGIES,
    IndexedTriggerSource,
    JoinPlan,
    has_homomorphism,
    make_trigger_source,
)
from .parallel import EXECUTORS, ParallelChaseExecutor, parallel_chase
from .result import ChaseLimits, ChaseResult

__all__ = [
    "BACKENDS",
    "ENGINE_CLASSES",
    "EXECUTORS",
    "STRATEGIES",
    "ChaseEngine",
    "ParallelChaseExecutor",
    "parallel_chase",
    "resolve_engine_class",
    "IndexedTriggerSource",
    "JoinPlan",
    "has_homomorphism",
    "make_trigger_source",
    "ChaseLimits",
    "ChaseResult",
    "ObliviousChase",
    "RestrictedChase",
    "SemiObliviousChase",
    "bell_number",
    "chase",
    "chase_size_bound",
    "satisfies",
    "static_simplification_size_bound",
]
