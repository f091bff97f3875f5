"""Per-family SQL statement totals, in the ``sql_family`` event's own schema.

A statement family is one row: a dict keyed by the ``sql_family`` event's
fields (``family``, ``statements``, ``seconds_total``, ``seconds_max``,
``rows_changed``, ``rows_read``).  :func:`merge_family_row` is the one way
to add a row into a family's totals — :class:`StatementMetrics` folds each
statement in with it, and :func:`repro.obs.report.hot_statements` folds the
events of a trace.

:class:`StatementMetrics` is the thin adapter the sqlite store holds: it
owns the clock, so the storage layer itself never reads wall time.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from .clock import Clock, MonotonicClock

FamilyRow = Dict[str, object]


def merge_family_row(totals: Dict[str, FamilyRow], row: Mapping[str, object]) -> None:
    """Add *row* into its family's entry of *totals*.

    Counts and seconds are summed; ``seconds_max`` takes the larger value.
    """
    family = str(row["family"])
    total = totals.get(family)
    if total is None:
        total = totals[family] = {
            "family": family, "statements": 0, "seconds_total": 0.0,
            "seconds_max": 0.0, "rows_changed": 0, "rows_read": 0,
        }
    total["statements"] = int(total["statements"]) + int(row["statements"])  # type: ignore[call-overload]
    total["seconds_total"] = float(total["seconds_total"]) + float(row["seconds_total"])  # type: ignore[arg-type]
    total["seconds_max"] = max(float(total["seconds_max"]), float(row["seconds_max"]))  # type: ignore[arg-type]
    total["rows_changed"] = int(total["rows_changed"]) + int(row["rows_changed"])  # type: ignore[call-overload]
    total["rows_read"] = int(total["rows_read"]) + int(row["rows_read"])  # type: ignore[call-overload]


class StatementMetrics:
    """Per-statement-family timing the sqlite store calls into.

    The store's labelled entry points (``query`` / ``bulk_apply`` with a
    ``family``) bracket a statement with ``started = metrics.start()`` …
    ``metrics.record(...)``; the adapter owns the clock, keeping wall-clock
    reads out of the storage layer entirely.  ``None`` instead of an adapter
    (the default) keeps the untraced hot path to a single attribute test.
    An adapter belongs to one ``chase()`` call on one store, which one
    thread uses, so it takes no lock.
    """

    __slots__ = ("_families", "_clock")

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._families: Dict[str, FamilyRow] = {}
        self._clock = clock if clock is not None else MonotonicClock()

    def start(self) -> float:
        return self._clock.now()

    def record(
        self,
        family: str,
        started: float,
        rows_changed: Optional[int] = None,
        rows_read: Optional[int] = None,
    ) -> None:
        elapsed = self._clock.now() - started
        merge_family_row(
            self._families,
            {
                "family": family,
                "statements": 1,
                "seconds_total": elapsed,
                "seconds_max": elapsed,
                "rows_changed": rows_changed or 0,
                "rows_read": rows_read or 0,
            },
        )

    def rows(self) -> List[FamilyRow]:
        """One ``sql_family`` row per family that ran, sorted by family."""
        return [self._families[family] for family in sorted(self._families)]
