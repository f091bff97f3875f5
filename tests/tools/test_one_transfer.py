"""Structural guard: Algorithm 2's transfer exists once, and stays compiled.

``repro.simplification.plans`` is the only implementation of "which
simplified rule does this (rule, shape) pair yield" under ``src/repro/``
(``TransferPlan.core``, on integers; everything that needs names adds them on top);
the per-pair interpreter it replaced is test code now
(``tests/simplification/reference.py``).  What made the interpreter slow must
not creep back onto the checker path: canonical atoms built per pair, shapes
recovered by parsing a simplified predicate's name, and simplified rules
materialised only to be counted or walked for their edges.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _sources():
    return {
        path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8")
        for path in SRC.rglob("*.py")
    }


#: IsChaseFinite[L] end to end, minus FindShapes and the shape algebra.
CHECKER_PATH = sorted(
    name for name in _sources()
    if name.startswith(("termination/", "graph/", "simplification/"))
    and name != "simplification/shapes.py"
)


def test_the_checker_path_is_what_this_guard_thinks_it_is():
    assert {"termination/linear.py", "termination/incremental.py", "graph/tarjan.py",
            "simplification/plans.py", "simplification/dynamic.py",
            "simplification/static.py"} <= set(CHECKER_PATH)
    assert "simplification/shapes.py" not in CHECKER_PATH


def test_no_module_parses_a_simplified_predicate_name():
    split = re.compile(r"""\.r?(?:split|partition)\(\s*["']__["']""")
    offenders = {name for name, source in _sources().items() if split.search(source)}
    assert offenders <= {"simplification/plans.py"}


def test_shape_predicates_are_named_in_one_place():
    mangle = re.compile(r"""f["'][^"']*\}__|__\{[^"']*["']""")
    assert {name for name, source in _sources().items() if mangle.search(source)} == {
        "simplification/shapes.py"
    }


def test_the_interpreter_left_src():
    gone = ("h_specialization", "shape_from_simplified_predicate", "simplify_tgd_with",
            "enumerate_specializations", "head_shapes(", "def applicable(", "canonical_atom")
    for name, source in _sources().items():
        assert not [needle for needle in gone if needle in source], name
    assert not (SRC / "simplification" / "specialization.py").exists()
    reference = SRC.parents[1] / "tests" / "simplification" / "reference.py"
    assert "def h_specialization(" in reference.read_text(encoding="utf-8")


def test_the_checkers_take_the_graph_from_the_fixpoint():
    sources = _sources()
    linear = sources["termination/linear.py"]
    assert ".dependency_graph()" in linear and ".rule_count" in linear
    # The incremental checker runs the pipeline through is_chase_finite_l.
    assert "is_chase_finite_l(" in sources["termination/incremental.py"]
    for name in ("termination/linear.py", "termination/incremental.py"):
        source = sources[name]
        assert "build_dependency_graph" not in source and ".tgds)" not in source, name


def test_the_int_core_is_the_one_transfer():
    sources = _sources()
    plans = sources["simplification/plans.py"]
    # One (rule, shape) step, on integers; transfer, simplify and the
    # fixpoint's name-level key all add names on top of it.
    assert plans.count("def core(") == 1 and plans.count("self.core(") == 1
    assert "core = self.core(identifiers)" in plans.split("def transfer(")[1]
    assert "self.transfer(identifiers)" in plans.split("def simplify(")[1]
    assert "self.simplify(" not in plans
    assert "plan.simplify(identifiers)" in sources["simplification/static.py"]
    for name in CHECKER_PATH:
        if name != "simplification/plans.py":
            assert "def core(" not in sources[name] and "place_of" not in sources[name], name


def test_the_fixpoint_decides_on_integers_and_names_only_shared_rules():
    dynamic = _sources()["simplification/dynamic.py"]
    run = dynamic.split("    def run(")[1].split("\nclass ")[0]
    assert "plan.core(identifiers)" in run
    assert ".transfer(" not in dynamic
    # Names are built only for a plan another rule can collide with, and
    # every other pair is keyed by its rule index, not the plan object.
    assert "= (plan.index, identifiers)" in run and run.count("plan.syntax(") == 1
    assert re.search(r"if plan\.shared:\s+rule = plan\.syntax\(identifiers, core\)", run)
