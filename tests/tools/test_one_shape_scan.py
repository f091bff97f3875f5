"""Structural guard: FindShapes scans rows through one kernel, not ``Shape`` by ``Shape``.

``repro.simplification.shapes`` holds the only per-row work of the in-process
finders (``first_occurrence_keys`` and the two scans built on it); a ``Shape``
is constructed — and validated — once per distinct pattern.  What made the
scan slow must not creep back: a ``Shape(...)``, ``identifier_tuple(...)`` or
``shape_of_atom(...)`` call inside a loop over rows or atoms anywhere else
under ``src/repro/``, or a row counter bumped one row at a time.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, List

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
KERNEL = "simplification/shapes.py"

PER_ROW_CALLS = {"Shape", "identifier_tuple", "shape_of_atom"}
ROWISH = re.compile(r"(?:^|_)(?:rows?|atoms?|chunks?|facts?|tuples?)(?:$|_)")
LOOPS = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _names(node: ast.AST) -> Iterator[str]:
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def _iterates_rows(loop: ast.AST) -> bool:
    heads = (
        [(loop.target, loop.iter)]
        if isinstance(loop, ast.For)
        else [(generator.target, generator.iter) for generator in loop.generators]
    )
    return any(ROWISH.search(name) for head in heads for part in head for name in _names(part))


def per_row_shape_calls(source: str) -> List[int]:
    """Line numbers of ``Shape``-building calls nested in a loop over rows or atoms."""
    offenders: List[int] = []

    def visit(node: ast.AST, in_row_loop: bool) -> None:
        if isinstance(node, LOOPS):
            in_row_loop = in_row_loop or _iterates_rows(node)
        if in_row_loop and isinstance(node, ast.Call):
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name in PER_ROW_CALLS:
                offenders.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, in_row_loop)

    visit(ast.parse(source), False)
    return offenders


def unit_row_count_bumps(source: str) -> List[int]:
    """Line numbers of ``….rows_scanned += 1``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.AugAssign)
        and isinstance(node.target, ast.Attribute)
        and node.target.attr == "rows_scanned"
        and isinstance(node.value, ast.Constant)
        and node.value.value == 1
    ]


def _sources():
    return {
        path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8")
        for path in SRC.rglob("*.py")
    }


def test_the_guard_sees_the_loops_it_replaced():
    in_memory = (
        "for chunk in chunks:\n"
        "    for row in chunk:\n"
        "        self.stats.rows_scanned += 1\n"
        "        shapes.add(Shape(name, identifier_tuple(row)))\n"
    )
    assert per_row_shape_calls(in_memory) == [4, 4]
    assert unit_row_count_bumps(in_memory) == [3]
    assert per_row_shape_calls("{shape_of_atom(atom) for atom in database}") == [1]
    assert per_row_shape_calls("[Shape(n, identifier_tuple(r)) for r in relation.rows()]") == [1, 1]
    per_pattern = "shapes.update(Shape(name, ids) for ids in row_patterns(rows))"
    assert per_row_shape_calls(per_pattern) == [1]  # the iterable names rows: still flagged
    assert per_row_shape_calls("patterns = scan(rows)\n[Shape(n, ids) for ids in patterns]") == []
    assert unit_row_count_bumps("self.stats.rows_scanned += len(relation)") == []


def test_no_shape_is_built_per_row_outside_the_kernel():
    offenders = {
        name: lines
        for name, source in _sources().items()
        if name != KERNEL and (lines := per_row_shape_calls(source))
    }
    assert offenders == {}


def test_rows_are_counted_per_relation_not_per_row():
    sources = _sources()
    assert {name: lines for name, source in sources.items()
            if (lines := unit_row_count_bumps(source))} == {}
    assert "rows_scanned +=" in sources["storage/shape_finder.py"]


def test_the_finders_scan_through_the_kernel():
    sources = _sources()
    assert "def first_occurrence_keys(" in sources[KERNEL]
    callers = {name for name, source in sources.items() if "row.index" in source}
    assert callers == {KERNEL}
    finder = sources["storage/shape_finder.py"]
    assert "row_patterns" in finder and "first_rows_of_patterns(" in finder
    assert "islice" not in finder
