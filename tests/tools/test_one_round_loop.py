"""Structural guard: the round loop and its budget automaton exist once.

``repro.chase.rounds`` is the only module that may test a budget or build
the budget-exceeded error; every execution path (serial engines, both
parallel topologies, both pushdown tiers) plugs a round step into its
driver.  A new call site anywhere else under ``src/repro/`` is a sixth copy
of the automaton in the making, and fails here.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Where each call may appear: the definitions, and the one driver.
ALLOWED = {
    "round_budget_exceeded(": {"chase/result.py", "chase/rounds.py"},
    "atom_budget_exceeded(": {"chase/result.py", "chase/rounds.py"},
    "ChaseLimitExceeded(": {"exceptions.py", "chase/rounds.py"},
}


def _files_containing(needle: str) -> set:
    return {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if needle in path.read_text(encoding="utf-8")
    }


def test_budget_checks_and_the_limit_error_live_only_in_the_round_driver():
    for needle, allowed in ALLOWED.items():
        assert _files_containing(needle) <= allowed, needle
        assert "chase/rounds.py" in _files_containing(needle), needle


def test_round_events_are_emitted_only_by_the_round_driver():
    emit = re.compile(r'\.emit\(\s*"(?:rule_)?round"')
    emitters = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if emit.search(path.read_text(encoding="utf-8"))
    }
    assert emitters == {"chase/rounds.py"}


def test_no_traced_twin_loops_remain():
    for module in ("chase/engine.py", "chase/parallel.py"):
        assert "in lockstep" not in (SRC / module).read_text(encoding="utf-8")
