"""Structural guard: the cyclic garbage collector is paused in one place.

``repro.termination.report.collector_paused`` is the only code under
``src/repro/`` that switches Python's cyclic garbage collector off or on,
and both ``IsChaseFinite`` checkers run inside it.  A second pause elsewhere
(around a chase, or a phase) would be a second policy, with its own way of
forgetting to restore the collector.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
SWITCHES = {"disable", "enable", "freeze"}
HELPER = ("termination/report.py", "collector_paused")


def _sources():
    return {
        path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8")
        for path in SRC.rglob("*.py")
    }


def _switches(sources):
    """Every ``gc.disable/enable/freeze`` (and ``from gc import``) in *sources*,
    as (module, outermost enclosing function)."""
    found = set()
    for name, source in sources.items():
        tree = ast.parse(source)

        def visit(node, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and function is None:
                function = node.name
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                found.add((name, "from gc import"))
            if (
                isinstance(node, ast.Attribute)
                and node.attr in SWITCHES
                and isinstance(node.value, ast.Name)
                and node.value.id == "gc"
            ):
                found.add((name, function))
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(tree, None)
    return found


def test_only_the_helper_switches_the_collector():
    assert _switches(_sources()) == {HELPER}


def test_both_checkers_run_inside_the_helper():
    for name, checker in (("termination/linear.py", "is_chase_finite_l"),
                          ("termination/simple_linear.py", "is_chase_finite_sl")):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        (function,) = [node for node in tree.body
                       if isinstance(node, ast.FunctionDef) and node.name == checker]
        decorators = [ast.unparse(decorator) for decorator in function.decorator_list]
        assert decorators == ["collector_paused"], name


def test_the_guard_sees_every_kind_of_switch():
    sources = {
        "chase/engine.py": "import gc\nclass E:\n    def run(self):\n        gc.disable()\n",
        "obs/clock.py": "import gc\ngc.freeze()\n",
        "cli.py": "from gc import enable\n",
        "graph/tarjan.py": "import gc\ngc.collect()\ngc.isenabled()\n",
    }
    assert _switches(sources) == {
        ("chase/engine.py", "run"), ("obs/clock.py", None), ("cli.py", "from gc import")
    }
