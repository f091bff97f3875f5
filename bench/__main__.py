"""``python -m bench`` — run the benchmark, or compare two of its reports.

Run from the repository root; ``src/`` is put on the children's path here,
so no ``PYTHONPATH`` is needed (``PYTHONPATH=src python -m bench`` works the
same).  With both ``--workload`` and ``--trace`` the last line of standard
output is the single JSON object the acceptance driver reads.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import compare
from .child import ChildFailed, launch
from .report import TableReporter, build_report
from .runner import Runner, contract_line
from .spec import load_spec

#: ``--quick``: every workload at an eighth of its size, two timed operations.
QUICK_SCALE = 0.125


def _parser(spec) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m bench",
        description="Seven workloads over the termination and chase paths: end-to-end "
        "metrics with tracing off, then a per-layer breakdown from one traced operation.",
    )
    parser.add_argument("--workload", choices=list(spec.workloads), help="run one workload")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(spec.run_seconds),
        help=f"how long each run measures (default {spec.run_seconds}, from BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="0: end-to-end metrics only; 1: per-layer metrics only (default: both)",
    )
    parser.add_argument("--out", metavar="FILE", help="write the self-describing JSON report")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke run: sizes scaled down, two operations, stamped comparable: false",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("BASE.json", "NEW.json"), help="compare two --out reports"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    args = _parser(spec).parse_args(argv)
    if args.compare:
        return compare.main(spec, args.compare[0], args.compare[1], sys.stdout)

    scale = QUICK_SCALE if args.quick else 1.0
    seconds = 0.0 if args.quick else args.seconds
    names = [args.workload] if args.workload else list(spec.workloads)
    traces = [args.trace] if args.trace is not None else [0, 1]
    runner = Runner(
        spec,
        execute=lambda name, trace: launch(name, trace, args.seed, seconds, scale),
        reporter=TableReporter(sys.stdout),
    )
    try:
        entries = runner.run(names, traces)
    except ChildFailed as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1
    if args.out:
        report = build_report(spec, entries, seed=args.seed, seconds=seconds, scale=scale)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.workload and args.trace is not None:
        print(json.dumps(contract_line(entries[args.workload], args.trace)))
    return 1 if any(entry["failed"] for entry in entries.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
