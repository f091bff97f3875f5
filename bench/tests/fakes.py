"""Fakes for the harness self-tests: a scripted workload, a recording
reporter, and a small spec — no chase, no termination check, no wall clock."""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence

from bench.spec import Metric, Spec
from bench.workload import Traced
from repro.obs import ManualClock


class FakeWorkload:
    """Every call advances the injected clock by a scripted amount."""

    name = "fake"
    unit = "widgets"

    def __init__(
        self,
        clock: ManualClock,
        setup_seconds: float = 2.0,
        operation_seconds: Sequence[float] = (1.0,),
        rejected: Sequence[int] = (),
        raising: Sequence[int] = (),
        traced: Optional[Traced] = None,
    ) -> None:
        self._clock = clock
        self._setup_seconds = setup_seconds
        self._operation_seconds = list(operation_seconds)
        self._rejected = set(rejected)
        self._raising = set(raising)
        self._traced = traced or Traced(wall_s=1.5, layers={"fake.layer_s": 1.25})
        self.setups = 0
        self.operations = 0
        self.warm_wall_s = None

    def params(self, scale: float) -> Dict[str, object]:
        return {"widgets": int(100 * scale)}

    def setup(self, seed: int, scale: float):
        self.setups += 1
        self._clock.advance(self._setup_seconds)
        return SimpleNamespace(units=int(100 * scale), seed=seed)

    def operate(self, inputs):
        """The n-th operation (1-based) takes the n-th scripted duration (the last one repeats)."""
        self.operations += 1
        index = min(self.operations, len(self._operation_seconds)) - 1
        self._clock.advance(self._operation_seconds[index])
        if self.operations in self._raising:
            raise RuntimeError("scripted failure")
        return self.operations

    def check(self, inputs, output) -> List[str]:
        return ["scripted rejection"] if output in self._rejected else []

    def trace(self, inputs, clock, warm_wall_s: float) -> Traced:
        self.warm_wall_s = warm_wall_s
        clock.advance(self._traced.wall_s)
        return self._traced


class RecordingReporter:
    def __init__(self) -> None:
        self.finished: List[str] = []
        self.entries: Dict[str, Dict[str, object]] = {}

    def workload_finished(self, name: str, entry: Dict[str, object]) -> None:
        self.finished.append(name)
        self.entries[name] = entry


def fake_spec(bound: float = 0.10) -> Spec:
    return Spec(
        command=("python3", "-m", "bench"),
        run_seconds=5,
        workloads={"fake": "a scripted workload"},
        end_to_end={
            "wall_s": Metric("wall_s", "s", "lower", bound),
            "units_per_s": Metric("units_per_s", "1/s", "higher", bound),
            "setup_s": Metric("setup_s", "s", "lower", 0.25),
            "peak_rss_mb": Metric("peak_rss_mb", "MiB", "lower", bound),
        },
        per_layer={
            "fake.layer_s": Metric("fake.layer_s", "s", "lower"),
            "fake.idle_layer_s": Metric("fake.idle_layer_s", "s", "lower"),
            "obs.trace_overhead_ratio": Metric("obs.trace_overhead_ratio", "ratio", "lower"),
            "bench.cold_wall_s": Metric("bench.cold_wall_s", "s", "lower"),
        },
    )
