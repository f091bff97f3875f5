"""Rendering and aggregation of experiment rows.

All runners in this package return lists of plain dicts; this module turns
them into aligned text tables (the "same rows/series the paper reports"),
grouped aggregates (means per profile / per database size), and CSV files.
"""

from __future__ import annotations

import csv
from collections import OrderedDict
from statistics import mean
from typing import Dict, Iterable, List, Optional, Sequence

Row = Dict[str, object]


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 0.001:
            return f"{value:.2e}"
        return f"{value:.4f}"
    return str(value)


def format_table(rows: Sequence[Row], columns: Optional[Sequence[str]] = None, title: Optional[str] = None) -> str:
    """Render rows as an aligned, pipe-separated text table."""
    if not rows:
        return f"{title or 'results'}: (no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    header = [str(column) for column in columns]
    body = [[_format_value(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(header[i]), max((len(line[i]) for line in body), default=0))
        for i in range(len(header))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(header[i].ljust(widths[i]) for i in range(len(header))))
    lines.append("-+-".join("-" * widths[i] for i in range(len(header))))
    for line in body:
        lines.append(" | ".join(line[i].ljust(widths[i]) for i in range(len(header))))
    return "\n".join(lines)


def group_mean(
    rows: Iterable[Row],
    group_by: Sequence[str],
    value_columns: Sequence[str],
) -> List[Row]:
    """Aggregate rows by *group_by* columns, averaging each value column.

    The result carries the group columns, the per-group row count (``n``),
    and one ``mean_<column>`` per value column — the same aggregates the
    paper plots (e.g. "average number of shapes over all databases of a
    certain size").
    """
    buckets: "OrderedDict[tuple, List[Row]]" = OrderedDict()
    for row in rows:
        key = tuple(row.get(column) for column in group_by)
        buckets.setdefault(key, []).append(row)
    aggregated: List[Row] = []
    for key, bucket in buckets.items():
        aggregate: Row = dict(zip(group_by, key))
        aggregate["n"] = len(bucket)
        for column in value_columns:
            values = [row[column] for row in bucket if isinstance(row.get(column), (int, float))]
            aggregate[f"mean_{column}"] = mean(values) if values else None
        aggregated.append(aggregate)
    return aggregated


def write_csv(rows: Sequence[Row], path, columns: Optional[Sequence[str]] = None) -> None:
    """Write rows to a CSV file (columns default to the union of row keys)."""
    rows = list(rows)
    if columns is None:
        seen: "OrderedDict[str, None]" = OrderedDict()
        for row in rows:
            for key in row:
                seen.setdefault(key, None)
        columns = list(seen)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(columns), extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def summarize_figure(rows: Sequence[Row]) -> str:
    """Produce the default printed summary for a figure's rows.

    Timing figures are grouped by profile and rule count; shape / FindShapes
    figures are grouped by predicate profile and database size.
    """
    rows = list(rows)
    if not rows:
        return "(no rows)"
    sample = rows[0]
    figure = str(sample.get("figure", sample.get("table", "results")))
    if "n_tuples_per_relation" in sample:
        group_columns = [c for c in ("predicate_profile", "n_tuples_per_relation") if c in sample]
        value_columns = [c for c in ("n_shapes", "t_shapes", "t_graph", "t_comp", "t_total") if c in sample]
    else:
        group_columns = [c for c in ("predicate_profile", "tgd_profile") if c in sample]
        value_columns = [c for c in ("n_rules", "n_edges", "t_parse", "t_graph", "t_comp", "t_total") if c in sample]
    if not group_columns:
        return format_table(rows, title=figure)
    aggregated = group_mean(rows, group_columns, value_columns)
    return format_table(aggregated, title=f"{figure} (means per group)")
