"""``python -m bench --compare BASE.json NEW.json``.

One row per (workload, end-to-end metric): base value, new value, the ratio
with its base, and a verdict decided by the regression bounds in
``BENCHMARK.json``:

* ``unresolved`` — either run's own spread (IQR ÷ median) is wider than the
  bound, so a change of that size cannot be told from noise;
* ``regressed`` — worse than the base by more than the bound;
* ``improved`` — better than the base by more than the bound;
* ``unchanged`` — anything in between.

``fail_ratio`` has no noise and no tolerance: any increase is a regression.
"""

from __future__ import annotations

import json
from typing import Dict, List, TextIO

from .report import write_table
from .spec import Metric, Spec


def verdict(metric: Metric, base: Dict[str, object], new: Dict[str, object]) -> str:
    bound = float(metric.bound or 0.0)
    if base.get("unresolved") or new.get("unresolved"):
        return "unresolved"
    base_value, new_value = float(base["value"]), float(new["value"])  # type: ignore[arg-type]
    worse_by = (new_value - base_value) / base_value
    if metric.better == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def fail_verdict(base: float, new: float) -> str:
    if new > base:
        return "regressed"
    return "improved" if new < base else "unchanged"


def compare(spec: Spec, base: Dict[str, object], new: Dict[str, object]) -> List[Dict[str, object]]:
    """The comparison rows for two ``--out`` reports."""
    rows: List[Dict[str, object]] = []
    base_workloads: Dict[str, Dict] = base["workloads"]  # type: ignore[assignment]
    new_workloads: Dict[str, Dict] = new["workloads"]  # type: ignore[assignment]
    for workload in spec.workloads:
        if workload not in base_workloads or workload not in new_workloads:
            continue
        before, after = base_workloads[workload], new_workloads[workload]
        for name, metric in spec.end_to_end.items():
            old, fresh = before["end_to_end"][name], after["end_to_end"][name]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric.unit,
                    "base": old["value"],
                    "new": fresh["value"],
                    "ratio": fresh["value"] / old["value"],
                    "bound": metric.bound,
                    "verdict": verdict(metric, old, fresh),
                }
            )
        rows.append(
            {
                "workload": workload,
                "metric": "fail_ratio",
                "unit": "ratio",
                "base": before["fail_ratio"],
                "new": after["fail_ratio"],
                "ratio": None,
                "bound": 0.0,
                "verdict": fail_verdict(before["fail_ratio"], after["fail_ratio"]),
            }
        )
    return rows


def main(spec: Spec, base_path: str, new_path: str, stream: TextIO) -> int:
    with open(base_path, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(new_path, encoding="utf-8") as handle:
        new = json.load(handle)
    for label, report in (("base", base), ("new", new)):
        if not report.get("comparable", False):
            stream.write(f"warning: the {label} report is a --quick run (comparable: false)\n")
    rows = compare(spec, base, new)
    header = ["workload", "metric", "base", "new", "unit", "new/base", "bound", "verdict"]
    table = [header] + [
        [
            str(row["workload"]),
            str(row["metric"]),
            f"{row['base']:.4g}",
            f"{row['new']:.4g}",
            str(row["unit"]),
            "-" if row["ratio"] is None else f"{row['ratio']:.3f} of {row['base']:.4g}",
            f"{row['bound']:.0%}",
            str(row["verdict"]),
        ]
        for row in rows
    ]
    write_table(table, stream)
    regressed = sum(1 for row in rows if row["verdict"] == "regressed")
    unresolved = sum(1 for row in rows if row["verdict"] == "unresolved")
    stream.write(f"{len(rows)} rows: {regressed} regressed, {unresolved} unresolved\n")
    return 1 if regressed else 0
