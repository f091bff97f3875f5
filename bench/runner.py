"""The measurement loop and the runner that turns raw runs into a report.

Two pieces, both free of infrastructure so fakes can drive them:

* :func:`measure` — what happens inside one fresh interpreter: set-up, one
  cold operation, timed operations with tracing off, and (``trace=1``) the
  traced operation.  It takes the workload, the clock and the collector.
* :class:`Runner` — runs workloads through an injected ``execute`` (the
  child-process launcher in production), checks every emitted name against
  ``BENCHMARK.json``, summarises, and hands each finished workload to the
  injected reporter.
"""

from __future__ import annotations

import gc
import statistics
import traceback
from typing import Callable, Dict, Iterable, List, Sequence

from .spec import Spec
from .stats import quiet_half, summarize

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 3
#: Fewest timed operations in a run, whatever ``seconds`` says.
MIN_OPERATIONS = 2

Raw = Dict[str, object]


def measure(
    workload,
    *,
    seed: int,
    seconds: float,
    trace: int,
    clock,
    scale: float = 1.0,
    collect: Callable[[], object] = gc.collect,
) -> Raw:
    """Run *workload* once in this interpreter and return the raw measurements.

    Closed loop, one client: the next operation starts when the previous one
    has been verified and dropped.  Before every timed region the previous
    result is released and *collect* runs, so no operation pays for its
    predecessor's garbage.  ``trace=0`` sets up :data:`SETUPS` times and
    measures for *seconds*; ``trace=1`` sets up once, measures warm
    operations for half as long (the baseline of the tracing overhead) and
    then runs the traced operation.
    """
    now = clock.now
    setup_samples: List[float] = []
    inputs = None
    for _ in range(1 if trace else SETUPS):
        inputs = None
        collect()
        started = now()
        inputs = workload.setup(seed, scale)
        setup_samples.append(now() - started)

    problems: List[str] = []
    attempted = 0
    failed = 0

    def operation() -> float:
        nonlocal attempted, failed
        collect()
        attempted += 1
        started = now()
        try:
            output = workload.operate(inputs)
        except Exception:
            failed += 1
            problems.append(f"operation {attempted} raised:\n{traceback.format_exc()}")
            return now() - started
        wall = now() - started
        found = workload.check(inputs, output)
        if found:
            failed += 1
            problems.extend(f"operation {attempted}: {problem}" for problem in found)
        return wall

    cold_wall_s = operation()
    wall_samples: List[float] = []
    deadline = now() + (seconds / 2 if trace else seconds)
    while len(wall_samples) < MIN_OPERATIONS or now() < deadline:
        wall_samples.append(operation())

    raw: Raw = {
        "workload": workload.name,
        "trace": trace,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "params": workload.params(scale),
        "unit": workload.unit,
        "units": inputs.units,
        "setup_samples": setup_samples,
        "cold_wall_s": cold_wall_s,
        "wall_samples": wall_samples,
    }
    if trace:
        collect()
        attempted += 1
        warm_wall_s = statistics.median(quiet_half(wall_samples))
        traced = workload.trace(inputs, clock, warm_wall_s)
        if traced.problems:
            failed += 1
            problems.extend(f"traced operation: {problem}" for problem in traced.problems)
        raw["traced_wall_s"] = traced.wall_s
        raw["layers"] = {
            **traced.layers,
            "obs.trace_overhead_ratio": traced.wall_s / warm_wall_s,
            "bench.cold_wall_s": cold_wall_s,
        }
    raw.update(attempted=attempted, failed=failed, problems=problems)
    return raw


class UndeclaredMetric(Exception):
    """A workload emitted a metric name ``BENCHMARK.json`` does not declare."""


def _with_unresolved(summary: Dict[str, float], unit: str, bound: float) -> Dict[str, object]:
    # A spread wider than the regression bound cannot resolve a regression
    # of that size: say so instead of pretending the number is stable.
    return {**summary, "unit": unit, "unresolved": summary["spread"] > bound}


def end_to_end(spec: Spec, raw: Raw) -> Dict[str, Dict[str, object]]:
    """Summarise a ``trace=0`` run into the declared end-to-end metrics."""
    units = float(raw["units"])  # type: ignore[arg-type]
    walls = quiet_half(raw["wall_samples"])  # type: ignore[arg-type]
    samples = {
        "wall_s": walls,
        "units_per_s": [units / wall for wall in walls],
        "setup_s": raw["setup_samples"],
        "peak_rss_mb": [raw["peak_rss_mb"]],
    }
    if set(samples) != set(spec.end_to_end):
        raise UndeclaredMetric(
            f"end-to-end metrics {sorted(samples)} != declared {sorted(spec.end_to_end)}"
        )
    return {
        name: _with_unresolved(summarize(samples[name]), metric.unit, float(metric.bound or 0.0))
        for name, metric in spec.end_to_end.items()
    }


def per_layer(spec: Spec, raw: Raw) -> Dict[str, Dict[str, object]]:
    """A ``trace=1`` run as the declared per-layer metrics.

    Every declared name is reported on every workload; a layer the workload
    never calls did no work and took no time, so it reads 0.
    """
    layers: Dict[str, float] = raw["layers"]  # type: ignore[assignment]
    undeclared = sorted(set(layers) - set(spec.per_layer))
    if undeclared:
        raise UndeclaredMetric(f"{raw['workload']} emitted undeclared layer metrics {undeclared}")
    return {
        name: {"value": layers.get(name, 0), "unit": metric.unit}
        for name, metric in spec.per_layer.items()
    }


def contract_line(entry: Dict[str, object], trace: int) -> Dict[str, object]:
    """The one-object result the acceptance driver reads from the last line."""
    metrics: Dict[str, Dict[str, object]] = entry["per_layer" if trace else "end_to_end"]  # type: ignore[assignment]
    return {
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in metrics.items()
        },
    }


class Runner:
    """Runs workloads and assembles the self-describing report.

    *execute(name, trace) -> raw* performs one run (in production: a fresh
    child interpreter, see :mod:`bench.child`); *reporter* is called with
    ``workload_finished(name, entry)`` after each workload.
    """

    def __init__(self, spec: Spec, execute: Callable[[str, int], Raw], reporter) -> None:
        self._spec = spec
        self._execute = execute
        self._reporter = reporter

    def run(self, names: Iterable[str], traces: Sequence[int]) -> Dict[str, Dict[str, object]]:
        entries: Dict[str, Dict[str, object]] = {}
        for name in names:
            if name not in self._spec.workloads:
                raise KeyError(f"unknown workload {name!r}; declared: {list(self._spec.workloads)}")
            entry = self._entry(name, {trace: self._execute(name, trace) for trace in traces})
            entries[name] = entry
            self._reporter.workload_finished(name, entry)
        return entries

    def _entry(self, name: str, raws: Dict[int, Raw]) -> Dict[str, object]:
        first = next(iter(raws.values()))
        attempted = sum(int(raw["attempted"]) for raw in raws.values())  # type: ignore[call-overload]
        failed = sum(int(raw["failed"]) for raw in raws.values())  # type: ignore[call-overload]
        entry: Dict[str, object] = {
            "why": self._spec.workloads[name],
            "params": first["params"],
            "unit": first["unit"],
            "units": first["units"],
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
            "problems": [problem for raw in raws.values() for problem in raw["problems"]],  # type: ignore[union-attr]
        }
        if 0 in raws:
            entry["end_to_end"] = end_to_end(self._spec, raws[0])
            entry["samples"] = {
                "wall_s": raws[0]["wall_samples"],
                "setup_s": raws[0]["setup_samples"],
                "cold_wall_s": raws[0]["cold_wall_s"],
            }
        if 1 in raws:
            entry["per_layer"] = per_layer(self._spec, raws[1])
            entry["traced_wall_s"] = raws[1]["traced_wall_s"]
        return entry
