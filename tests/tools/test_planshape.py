"""Plan-shape audit self-tests.

Pins three properties: the panel really covers every compiled statement
family (no silent vacuity), the current tree's plans are clean, and the
audit turns red under the canonical mutation — dropping the join indexes a
compiled statement depends on.
"""

from __future__ import annotations

from tools.reprolint.planshape import (
    REQUIRED_FAMILIES,
    collect_cases,
    run_plan_shape,
)


def test_panel_covers_every_statement_family():
    cases = collect_cases()
    families = {case.family for case in cases}
    assert REQUIRED_FAMILIES == families
    # Multi-slot joins must contribute one stage statement per seed slot.
    stage_labels = [case.label for case in cases if case.family == "stage"]
    assert any("seed_slot=0" in label for label in stage_labels)
    assert any("seed_slot=1" in label for label in stage_labels)


def test_current_tree_plans_are_clean():
    findings = run_plan_shape()
    assert findings == [], [finding.message for finding in findings]


def test_dropping_join_indexes_turns_the_audit_red():
    # Mutation: strip the secondary (position/seq) indexes from a compiled
    # stage statement's store; the seed-slot scan must degrade and be
    # reported.  This is what protects against a future compiler change
    # silently losing its index discipline.
    case = next(
        case
        for case in collect_cases()
        if case.family == "stage" and "seed_slot=1" in case.label
    )
    assert case.audit() == []
    index_rows = case.store.query(
        "SELECT name FROM sqlite_master WHERE type='index' AND name LIKE 'idx_%'"
    )
    for (name,) in index_rows:
        case.store.bulk_apply(f'DROP INDEX "{name}"')
    problems = case.audit()
    assert problems, "dropping every join index left the plan audit green"
    assert any("degraded" in problem for problem in problems)


def test_the_linear_program_is_audited_through_the_round_statements():
    # Linear rules run the same stage/record/insert statements as joins,
    # with no family of their own.
    linear = {case.family for case in collect_cases() if case.label.startswith("linear[")}
    assert linear == {"stage", "record", "insert"}
