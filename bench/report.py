"""The self-describing report: host stamp, ``--out`` JSON, and the tables."""

from __future__ import annotations

import os
import platform
import sys
from typing import Dict, List, Optional, Sequence, TextIO

from .spec import ROOT, Spec


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` directly (no subprocess);
    ``"unknown"`` outside a git checkout, as in the acceptance driver's copy."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        reference = head[len("ref: "):]
        loose = git / reference
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + reference):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def host_stamp(workers: int = 2) -> Dict[str, object]:
    cpu_count = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": cpu_count,
        # chase_skew_par2 runs a coordinator plus two workers: with fewer
        # than three CPUs its numbers measure time-slicing, not scaling.
        "oversubscribed": cpu_count < workers + 1,
    }


def build_report(
    spec: Spec,
    entries: Dict[str, Dict[str, object]],
    *,
    seed: int,
    seconds: float,
    scale: float,
) -> Dict[str, object]:
    return {
        "benchmark": "python -m bench",
        "command": list(spec.command),
        "git_commit": git_commit(),
        "host": host_stamp(),
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        # Scaled-down (--quick) numbers must never be compared with full runs.
        "comparable": scale == 1.0,
        "timing": "median with quartiles, min, max and n; a run has too few "
        "operations for any tail percentile to have ten samples beyond it",
        "workloads": entries,
    }


#: Timed beside the traced operation, not inside it: no share of its wall time.
SIDE_MEASUREMENTS = frozenset(
    {
        "storage.shape_finder.indb_find_shapes_s",
        "chase.matching.initial_match_s",
        "chase.engine.serial_wall_s",
        "chase.parallel.coordinator_wall_s",
        "chase.exchange.shuffle_wall_s",
        "chase.exchange.exchange_s",
        "bench.cold_wall_s",
    }
)


def _format(value: object) -> str:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1000:
        return f"{int(value):,}"
    return f"{value:.4g}"


def write_table(rows: Sequence[Sequence[str]], stream: TextIO) -> None:
    """Write *rows* aligned: first column left, the rest right."""
    widths = [max(len(row[column]) for row in rows) for column in range(len(rows[0]))]
    for row in rows:
        cells = [row[0].ljust(widths[0])] + [
            cell.rjust(width) for cell, width in zip(row[1:], widths[1:])
        ]
        stream.write("  " + "  ".join(cells).rstrip() + "\n")


class TableReporter:
    """Prints one aligned table per finished workload."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self._stream = stream if stream is not None else sys.stdout

    def workload_finished(self, name: str, entry: Dict[str, object]) -> None:
        write = self._stream.write
        write(f"\n== {name} — {entry['why']}\n")
        write(
            f"   {_format(entry['units'])} {entry['unit']} per operation; "
            f"{entry['attempted']} operations attempted, {entry['failed']} failed "
            f"(fail_ratio {_format(entry['fail_ratio'])} ratio)\n"
        )
        for problem in entry["problems"]:  # type: ignore[union-attr]
            write(f"   FAILED: {problem}\n")
        end_to_end: Dict[str, Dict[str, object]] = entry.get("end_to_end", {})  # type: ignore[assignment]
        if end_to_end:
            timed = len(entry["samples"]["wall_s"])  # type: ignore[index]
            write(
                f"   wall_s and units_per_s summarise the faster half of the {timed} timed "
                "operations (noise on a shared host only adds time)\n"
            )
            rows: List[List[str]] = [["end to end", "median", "unit", "q1", "q3", "min", "max", "n", ""]]
            for metric, summary in end_to_end.items():
                rows.append(
                    [metric, _format(summary["value"]), str(summary["unit"])]
                    + [_format(summary[key]) for key in ("q1", "q3", "min", "max", "n")]
                    + ["unresolved: IQR/median above the bound" if summary["unresolved"] else ""]
                )
            write_table(rows, self._stream)
        per_layer: Dict[str, Dict[str, object]] = entry.get("per_layer", {})  # type: ignore[assignment]
        if per_layer:
            traced_wall_s = float(entry["traced_wall_s"])  # type: ignore[arg-type]
            rows = [["per layer (traced operation)", "value", "unit", "share"]]
            for metric, measured in per_layer.items():
                value = measured["value"]
                if not value:
                    continue  # layers this workload never enters
                share = ""
                if measured["unit"] == "s" and metric not in SIDE_MEASUREMENTS:
                    share = f"{100 * float(value) / traced_wall_s:.1f}%"  # type: ignore[arg-type]
                rows.append([metric, _format(value), str(measured["unit"]), share])
            write_table(rows, self._stream)
            for prefix in ("termination", "chase"):
                ratio = per_layer.get(f"{prefix}.unattributed_ratio", {}).get("value", 0)
                if abs(float(ratio)) > 0.10:  # type: ignore[arg-type]
                    write(
                        f"   NOTE: {prefix}.unattributed_ratio is {float(ratio):+.1%} — the "  # type: ignore[arg-type]
                        "layer timings do not add up to the traced wall time within 10%\n"
                    )
        self._stream.flush()
