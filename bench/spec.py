"""``BENCHMARK.json`` as an object: the one place metric names, units,
directions and regression bounds are declared.

Everything the harness emits is checked against this file (see
:func:`bench.runner.build_entry`), so a metric cannot be printed without
being declared, and ``--compare`` reads its bounds from here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

#: The checkout root: ``bench/`` sits next to ``src/`` and ``BENCHMARK.json``.
ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: Optional[float] = None  # end-to-end metrics only


@dataclass(frozen=True)
class Spec:
    command: Tuple[str, ...]
    run_seconds: int
    workloads: Dict[str, str]  # name -> why
    end_to_end: Dict[str, Metric]
    per_layer: Dict[str, Metric]


def load_spec(path: Optional[Path] = None) -> Spec:
    """Read ``BENCHMARK.json`` (the repository's by default)."""
    with open(path if path is not None else ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        raw = json.load(handle)
    return Spec(
        command=tuple(raw["command"]),
        run_seconds=int(raw["run_seconds"]),
        workloads={entry["name"]: entry["why"] for entry in raw["workloads"]},
        end_to_end={entry["name"]: Metric(**entry) for entry in raw["end_to_end"]},
        per_layer={entry["name"]: Metric(**entry) for entry in raw["per_layer"]},
    )
