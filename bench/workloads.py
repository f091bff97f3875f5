"""The seven workloads, by name, with their frozen sizes.

Sizes are half of what the issue sketched (the retuning it allows): the
acceptance driver gives a run about twenty seconds including three set-ups,
so operations are sized for 0.3–0.9 s and a run of ten seconds takes twelve to thirty of them.
Why each workload exists is recorded next to its name in ``BENCHMARK.json``
and at length in ``bench/README.md``.
"""

from __future__ import annotations

from typing import Dict

from .chase_workloads import CHASE_WORKLOADS
from .termination_workloads import LinearRules, SimpleLinearRules
from .workload import Workload

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        SimpleLinearRules(),
        LinearRules("l_rules", "rules", rules=2000, relations=200, rows=50, dsize=1000),
        LinearRules("l_data", "tuples", rules=200, relations=60, rows=5000, dsize=50_000),
        *CHASE_WORKLOADS,
    )
}
