"""Aggregate a trace's event stream into the ``trace-report`` tables.

The profiler's contract (held by ``tests/property/test_conformance.py``):
summing the ``round`` events of a chase trace reproduces the run's
``triggers_fired`` and ``atoms_created`` totals *exactly* — the trace is a
lossless decomposition of the end-of-run aggregates, not a sample.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .events import TraceFormatError

Event = Dict[str, object]


def _format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Right-align numbers, left-align the first column; plain text."""
    table = [list(map(str, headers))] + [[_cell(value) for value in row] for row in rows]
    widths = [max(len(row[col]) for row in table) for col in range(len(headers))]
    lines = []
    for index, row in enumerate(table):
        cells = [
            row[col].ljust(widths[col]) if col == 0 else row[col].rjust(widths[col])
            for col in range(len(row))
        ]
        lines.append("  ".join(cells).rstrip())
        if index == 0:
            lines.append("  ".join("-" * widths[col] for col in range(len(row))))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _of_type(events: Sequence[Event], event_type: str) -> List[Event]:
    return [event for event in events if event["type"] == event_type]


def round_totals(events: Sequence[Event]) -> Tuple[int, int]:
    """``(triggers_fired, atoms_created)`` summed over ``round`` events."""
    fired = 0
    atoms = 0
    for event in _of_type(events, "round"):
        fired += int(event["fired"])  # type: ignore[call-overload]
        atoms += int(event["atoms_created"])  # type: ignore[call-overload]
    return fired, atoms


def hot_rules(events: Sequence[Event], top: Optional[int] = None) -> List[Dict[str, object]]:
    """Per-rule totals over ``rule_round`` events, hottest (by time) first."""
    by_rule: Dict[str, Dict[str, object]] = {}
    for event in _of_type(events, "rule_round"):
        rule = str(event["rule"])
        stats = by_rule.setdefault(
            rule,
            {"rule": rule, "enumerated": 0, "fired": 0, "atoms_created": 0,
             "nulls_invented": 0, "seconds": 0.0},
        )
        for field in ("enumerated", "fired", "atoms_created", "nulls_invented"):
            stats[field] = int(stats[field]) + int(event[field])  # type: ignore[call-overload]
        stats["seconds"] = float(stats["seconds"]) + float(event["dur"])  # type: ignore[arg-type]
    ranked = sorted(
        by_rule.values(), key=lambda stats: (-float(stats["seconds"]), str(stats["rule"]))  # type: ignore[arg-type]
    )
    return ranked if top is None else ranked[:top]


def hot_statements(events: Sequence[Event], top: Optional[int] = None) -> List[Dict[str, object]]:
    """Per-family SQL totals over ``sql_family`` events, hottest first."""
    by_family: Dict[str, Dict[str, object]] = {}
    for event in _of_type(events, "sql_family"):
        family = str(event["family"])
        stats = by_family.setdefault(
            family,
            {"family": family, "statements": 0, "seconds_total": 0.0,
             "seconds_max": 0.0, "rows_changed": 0, "rows_read": 0},
        )
        stats["statements"] = int(stats["statements"]) + int(event["statements"])  # type: ignore[call-overload]
        stats["seconds_total"] = float(stats["seconds_total"]) + float(event["seconds_total"])  # type: ignore[arg-type]
        stats["seconds_max"] = max(float(stats["seconds_max"]), float(event["seconds_max"]))  # type: ignore[arg-type]
        stats["rows_changed"] = int(stats["rows_changed"]) + int(event["rows_changed"])  # type: ignore[call-overload]
        stats["rows_read"] = int(stats["rows_read"]) + int(event["rows_read"])  # type: ignore[call-overload]
    ranked = sorted(
        by_family.values(),
        key=lambda stats: (-float(stats["seconds_total"]), str(stats["family"])),  # type: ignore[arg-type]
    )
    return ranked if top is None else ranked[:top]


def render_report(events: Sequence[Event], top: int = 10) -> str:
    """The full plain-text profile ``repro-experiments trace-report`` prints."""
    sections: List[str] = []
    start = events[0]
    sections.append(
        f"trace: schema v{start['v']}, tool {start['tool']}, {len(events)} event(s)"
    )

    for chase_start in _of_type(events, "chase_start"):
        sections.append(
            "chase: {variant} [{strategy}/{backend}/{workers}w] "
            "{n_rules} rule(s), {n_database_atoms} database atom(s)".format(**chase_start)
        )
    rounds = _of_type(events, "round")
    if rounds:
        sections.append("\nper round:")
        sections.append(
            _format_table(
                ("round", "delta", "considered", "fired", "atoms", "seconds"),
                [
                    (e["round"], e["delta_size"], e["considered"], e["fired"],
                     e["atoms_created"], float(e["dur"]))  # type: ignore[arg-type]
                    for e in rounds
                ],
            )
        )
    rules = hot_rules(events, top=top)
    if rules:
        sections.append("\nhot rules:")
        sections.append(
            _format_table(
                ("rule", "enumerated", "fired", "atoms", "nulls", "seconds"),
                [
                    (r["rule"], r["enumerated"], r["fired"], r["atoms_created"],
                     r["nulls_invented"], float(r["seconds"]))  # type: ignore[arg-type]
                    for r in rules
                ],
            )
        )
    statements = hot_statements(events, top=top)
    if statements:
        sections.append("\nhot statements:")
        sections.append(
            _format_table(
                ("family", "statements", "total_s", "max_s", "rows_changed", "rows_read"),
                [
                    (s["family"], s["statements"], float(s["seconds_total"]),  # type: ignore[arg-type]
                     float(s["seconds_max"]), s["rows_changed"], s["rows_read"])  # type: ignore[arg-type]
                    for s in statements
                ],
            )
        )
    workers = _of_type(events, "worker_round")
    if workers:
        by_worker: Dict[str, Dict[str, object]] = {}
        for event in workers:
            worker = str(event["worker"])
            stats = by_worker.setdefault(
                worker, {"worker": worker, "considered": 0, "fired": 0, "seconds": 0.0}
            )
            stats["considered"] = int(stats["considered"]) + int(event["considered"])  # type: ignore[call-overload]
            stats["fired"] = int(stats["fired"]) + int(event["fired"])  # type: ignore[call-overload]
            stats["seconds"] = float(stats["seconds"]) + float(event["dur"])  # type: ignore[arg-type]
        sections.append("\nper worker:")
        sections.append(
            _format_table(
                ("worker", "considered", "fired", "seconds"),
                [
                    (w["worker"], w["considered"], w["fired"], float(w["seconds"]))  # type: ignore[arg-type]
                    for w in sorted(by_worker.values(), key=lambda s: str(s["worker"]))
                ],
            )
        )

    tasks = _of_type(events, "sweep_task")
    if tasks:
        ranked_tasks = sorted(tasks, key=lambda e: -float(e["dur"]))[:top]  # type: ignore[arg-type]
        sections.append("\nslowest sweep tasks:")
        sections.append(
            _format_table(
                ("task", "kind", "rows", "resumed", "seconds"),
                [
                    (e["task_id"], e["kind"], e["rows"], e["resumed"], float(e["dur"]))  # type: ignore[arg-type]
                    for e in ranked_tasks
                ],
            )
        )
    progress = _of_type(events, "fuzz_progress")
    if progress:
        last = progress[-1]
        sections.append(
            "\nfuzz progress: {cases} case(s) at {cases_per_s:.1f}/s, "
            "{coverage_edges} coverage edge(s), pool {pool_size}, "
            "{divergent} divergent".format(
                cases=last["cases"], cases_per_s=float(last["cases_per_s"]),  # type: ignore[arg-type]
                coverage_edges=last["coverage_edges"], pool_size=last["pool_size"],
                divergent=last["divergent"],
            )
        )

    ends = _of_type(events, "chase_end")
    for chase_end in ends:
        sections.append(
            "\nchase_end: {status}, rounds={rounds}, triggers_fired={fired}, "
            "atoms_created={atoms}, instance_size={size}, {dur:.3f}s".format(
                status=(
                    "fixpoint" if chase_end["terminated"]
                    else f"stopped ({chase_end['stop_reason']})"
                ),
                rounds=chase_end["rounds"], fired=chase_end["triggers_fired"],
                atoms=chase_end["atoms_created"], size=chase_end["instance_size"],
                dur=float(chase_end["dur"]),  # type: ignore[arg-type]
            )
        )
    if rounds and len(ends) == 1:
        fired, atoms = round_totals(events)
        end = ends[0]
        if fired != end["triggers_fired"] or atoms != end["atoms_created"]:
            raise TraceFormatError(
                "trace is internally inconsistent: round events sum to "
                f"fired={fired}, atoms={atoms} but chase_end reports "
                f"fired={end['triggers_fired']}, atoms={end['atoms_created']}"
            )
        sections.append(
            f"cross-check: round events sum exactly to the run totals "
            f"(fired={fired}, atoms={atoms})"
        )
    return "\n".join(sections)
