"""What the runner needs from a workload."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Protocol

from repro.obs import Clock


class VerificationError(Exception):
    """Set-up found the reference engines disagreeing: nothing can be measured."""


@dataclass
class Traced:
    """The traced operation: its wall time, the layer metrics, what failed to verify."""

    wall_s: float
    layers: Dict[str, float]
    problems: List[str] = field(default_factory=list)


def scaled(value: int, scale: float) -> int:
    """A frozen size under ``--quick``'s scale factor (never below 1)."""
    return max(1, int(value * scale))


class Workload(Protocol):
    name: str
    #: What ``units_per_s`` counts: "rules", "tuples" or "atoms".
    unit: str

    def params(self, scale: float) -> Dict[str, object]:
        """The frozen input sizes (stamped into the report)."""

    def setup(self, seed: int, scale: float) -> Any:
        """Generate inputs from *seed*, serialise them, load stores, and run
        the reference engine whose answer operations are verified against.
        The returned inputs expose ``units``."""

    def operate(self, inputs: Any) -> Any:
        """One end-to-end operation, tracing off.  This is what is timed."""

    def check(self, inputs: Any, output: Any) -> List[str]:
        """Verify *output* (and release what it holds); return the problems."""

    def trace(self, inputs: Any, clock: Clock, warm_wall_s: float) -> Traced:
        """The traced operation plus side measurements, one layer at a time."""
