"""Structural guard: the round loop and its budget automaton exist once.

``repro.chase.rounds`` is the only module that may test a budget or build
the budget-exceeded error; every execution path (serial engines, both
parallel topologies, both pushdown tiers) plugs a round step into its
driver.  A new call site anywhere else under ``src/repro/`` is a sixth copy
of the automaton in the making, and fails here.

The same goes for the firing path: one function digests a null key, one
helper inserts atoms into a store, and the two firing sites run matches
through the rule's ``FiringPlan`` without building per-trigger objects.
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


def test_atoms_are_inserted_one_by_one_only_in_the_insertion_helper():
    calls = [
        (path.relative_to(SRC).as_posix(), line.strip())
        for path in sorted((SRC / "chase").rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if ".add_atom(" in line
    ]
    # insert_atoms' fallback for stores without a bulk add_atoms
    assert calls == [("chase/rounds.py", "store.add_atom(atom)")]


def test_the_firing_sites_build_no_per_trigger_objects():
    per_trigger = ("Trigger(", "Substitution(", "sorted(")
    engine = (SRC / "chase/engine.py").read_text(encoding="utf-8")
    assert not [needle for needle in per_trigger[:2] if needle in engine]
    parallel = (SRC / "chase/parallel.py").read_text(encoding="utf-8")
    # A worker fires through ``self.fire``: the plan's ``result`` or, on a
    # process replica of the coordinator merge, only its ``values`` half.
    firing_sites = {
        "_round_step": (engine, ".result(key, "),
        "_consider": (parallel, "self.fire(plan, key, "),
    }
    for name, (source, fire) in firing_sites.items():
        (function,) = [
            node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name == name
        ]
        body = ast.get_source_segment(source, function)
        assert ".key(mapping)" in body and fire in body, name
        assert not [needle for needle in per_trigger if needle in body], name
    assigned = re.findall(r"\bfire(?:: [^=\n]+)? = (\S+)", parallel)
    assert sorted(assigned) == ["FiringPlan.result", "FiringPlan.values"]
