"""Structural guard: the round loop and its budget automaton exist once.

``repro.chase.rounds`` is the only module that may test a budget or build
the budget-exceeded error; every execution path (serial engines, both
parallel topologies, both pushdown tiers) plugs a round step into its
driver.  A new call site anywhere else under ``src/repro/`` is a sixth copy
of the automaton in the making, and fails here.

The same goes for the firing path: one function digests a null key, one
helper inserts rows into a store, and the two firing sites run matches
through the rule's ``FiringPlan`` without building per-trigger objects —
an :class:`Atom` included: matches, firing keys and results are rows.
"""

from __future__ import annotations

import ast
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


def test_null_names_are_digested_in_one_module():
    assert _files_containing("blake2b(") == {"core/terms.py"}


def test_rows_reach_stores_only_through_the_insertion_helper():
    calls = [
        (path.relative_to(SRC).as_posix(), line.strip())
        for path in sorted((SRC / "chase").rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if ".add_rows(" in line or ".add_atom(" in line or ".add_atoms(" in line
    ]
    # insert_rows: one add_rows call per predicate run
    assert calls == [("chase/rounds.py", "store.add_rows(predicate, run)")]


def test_the_firing_sites_build_no_per_trigger_objects():
    per_trigger = ("Trigger(", "Substitution(", "Atom(", "sorted(")
    engine = (SRC / "chase/engine.py").read_text(encoding="utf-8")
    assert not [needle for needle in per_trigger[:3] if needle in engine]
    parallel = (SRC / "chase/parallel.py").read_text(encoding="utf-8")
    # Both sites key the match's slot tuple and fire its value row; the
    # serial one expands it into head rows on the spot.
    firing_sites = {"_round_step": engine, "_consider": parallel}
    for name, source in firing_sites.items():
        (function,) = [
            node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name == name
        ]
        body = ast.get_source_segment(source, function)
        assert ".key(values)" in body and ".values(key, " in body, name
        assert not [needle for needle in per_trigger if needle in body], name
    assert ".head_rows(plan.values(key, " in engine
    # The fused firing plan has no atom-building half left.
    triggers = (SRC / "chase/triggers.py").read_text(encoding="utf-8")
    assert "def result(" not in triggers and "def atoms(" not in triggers
    assert "match_atom" not in (SRC / "chase/matching.py").read_text(encoding="utf-8")
