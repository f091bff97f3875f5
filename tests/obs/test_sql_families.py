"""The ``sql_family`` events of a traced ``sql-pushdown`` chase.

The program is CI's trace-smoke program.  The statement counts and row
counts per family are pinned for each variant (only the seconds vary run to
run), and ``hot_statements`` must fold the events back to the same totals.
"""

from __future__ import annotations

import pytest

from repro.chase.engine import chase
from repro.chase.result import ChaseLimits
from repro.core.parser import parse_database, parse_rules
from repro.exceptions import ChaseLimitExceeded
from repro.obs import ListTraceSink, StatementMetrics, Tracer, hot_statements
from repro.storage.sqlbackend import SqliteAtomStore

RULES = ["R(x,y) -> S(y,z)", "S(x,y), R(z,x) -> T(z,y)"]
FACTS = ["R(a,b).", "R(b,a).", "R(b,c)."]

#: ``family: (statements, rows_changed, rows_read)`` of one traced run.
OBLIVIOUS_FAMILIES = {
    "pushdown-apply": (2, 6, 0),
    "pushdown-ddl": (8, 0, 0),
    "pushdown-record": (2, 6, 0),
    "pushdown-stage": (6, 6, 0),
}
EXPECTED = {
    "semi-oblivious": OBLIVIOUS_FAMILIES,
    "oblivious": OBLIVIOUS_FAMILIES,
    "restricted": {
        **OBLIVIOUS_FAMILIES,
        "pushdown-ddl": (12, 0, 0),
        "pushdown-firing": (4, 6, 0),
    },
}


def _traced_families(variant, store, **options):
    sink = ListTraceSink()
    chase(
        parse_database(FACTS),
        parse_rules(RULES),
        variant=variant,
        strategy="sql-pushdown",
        store=store,
        tracer=Tracer(sink),
        **options,
    )
    return [event for event in sink.events if event["type"] == "sql_family"]


def _counts(rows):
    return {
        row["family"]: (row["statements"], row["rows_changed"], row["rows_read"])
        for row in rows
    }


@pytest.mark.parametrize("variant", sorted(EXPECTED))
class TestSqlFamilyEvents:
    def test_counts_per_family(self, variant):
        events = _traced_families(variant, SqliteAtomStore())
        assert _counts(events) == EXPECTED[variant]

    def test_events_are_sorted_by_family_and_the_max_is_within_the_total(self, variant):
        events = _traced_families(variant, SqliteAtomStore())
        families = [event["family"] for event in events]
        assert families == sorted(families)
        for event in events:
            assert 0.0 <= event["seconds_max"] <= event["seconds_total"]

    def test_hot_statements_folds_the_events_to_the_same_totals(self, variant):
        events = _traced_families(variant, SqliteAtomStore())
        fields = ("statements", "seconds_total", "seconds_max", "rows_changed", "rows_read")
        folded = {row["family"]: tuple(row[f] for f in fields) for row in hot_statements(events)}
        assert folded == {event["family"]: tuple(event[f] for f in fields) for event in events}

    def test_a_second_traced_chase_reports_only_its_own_statements(self, variant):
        store = SqliteAtomStore()
        _traced_families(variant, store)
        second = _counts(_traced_families(variant, store))
        # The adapter is detached after each run: the second run's DDL count
        # is its own, not the sum of both runs'.
        assert second["pushdown-ddl"] == EXPECTED[variant]["pushdown-ddl"]
        # Everything is already derived, so the second run writes no new atom.
        assert all(
            second[family][1] == 0
            for family in ("pushdown-apply", "pushdown-firing")
            if family in second
        )


def test_the_adapter_is_detached_even_when_the_chase_raises(monkeypatch):
    recorded = []
    record = StatementMetrics.record
    monkeypatch.setattr(
        StatementMetrics,
        "record",
        lambda self, family, *args, **kwargs: (
            recorded.append(family), record(self, family, *args, **kwargs)
        ),
    )
    store = SqliteAtomStore()
    with pytest.raises(ChaseLimitExceeded):
        _traced_families(
            "semi-oblivious", store, limits=ChaseLimits(max_rounds=1), on_limit="raise"
        )
    assert recorded
    recorded.clear()
    chase(parse_database(FACTS), parse_rules(RULES), strategy="sql-pushdown", store=store)
    assert recorded == []
