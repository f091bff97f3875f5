"""Which call lands in which of the paper's time parameters.

The checkers time their phases with ``TimingBreakdown.measure``, which reads
``repro.termination.report.perf_counter_s``.  Here that clock is a
:class:`~repro.obs.ManualClock` that only moves when a stage runs: every
stage callable a checker module calls is wrapped to advance it by its own
power of two, so each ``t_*`` field reads back exactly the set of stages
timed inside that phase.  The class checks (``require_linear`` /
``require_simple_linear``) advance it by 16: the checkers' own calls land in
no phase, and ``dynamic_simplification`` neither repeats the linearity check
nor resolves the shapes a second time inside ``t_graph`` (so an L run's
``t_graph`` reads 4).
"""

from __future__ import annotations

import importlib

import pytest

from repro.core.parser import parse_database, parse_rules
from repro.core.tgds import TGDSet
from repro.obs import ManualClock

linear_module = importlib.import_module("repro.termination.linear")
simple_linear_module = importlib.import_module("repro.termination.simple_linear")
dynamic_module = importlib.import_module("repro.simplification.dynamic")

FINITE_RULES = "R(x,y) -> S(y,z)\nS(x,y) -> T(x)\n"
INFINITE_RULES = "R(x,y) -> R(y,z)\n"
FACTS = "R(a,b).\n"

#: The clock advance of each stage; distinct powers of two, so a phase's
#: total names the stages it covered.
STAGE_SECONDS = {
    "parse_rules": 1.0,
    "resolve_shapes": 2.0,
    "dynamic_simplification": 4.0,
    "resume_dynamic_simplification": 4.0,
    "_build": 4.0,
    "find_special_sccs": 8.0,
    "supports": 32.0,
}
REQUIRE_SECONDS = 16.0


def _advancing(clock, seconds, function):
    def wrapper(*args, **kwargs):
        clock.advance(seconds)
        return function(*args, **kwargs)

    return wrapper


@pytest.fixture
def clock(monkeypatch):
    clock = ManualClock(start=100.0)
    monkeypatch.setattr("repro.termination.report.perf_counter_s", clock.now)
    for module in (linear_module, simple_linear_module, dynamic_module):
        for name, seconds in STAGE_SECONDS.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _advancing(clock, seconds, getattr(module, name)))
    for name in ("require_linear", "require_simple_linear"):
        monkeypatch.setattr(
            TGDSet, name, _advancing(clock, REQUIRE_SECONDS, getattr(TGDSet, name))
        )
    return clock


def _phases(report):
    timings = report.timings
    return (timings.t_parse, timings.t_shapes, timings.t_graph, timings.t_comp)


class TestLinear:
    def test_text_input_times_every_stage_in_its_own_phase(self, clock):
        report = linear_module.is_chase_finite_l(parse_database(FACTS), INFINITE_RULES)
        assert not report.finite
        assert _phases(report) == (1.0, 2.0, 4.0, 8.0)
        assert report.timings.t_total == 15.0

    def test_a_tgdset_input_has_no_parse_time(self, clock):
        tgds = parse_rules(INFINITE_RULES)
        report = linear_module.is_chase_finite_l(parse_database(FACTS), tgds)
        assert _phases(report) == (0.0, 2.0, 4.0, 8.0)

    def test_a_resumed_simplification_is_graph_time(self, clock):
        tgds = parse_rules(FINITE_RULES)
        first = linear_module.is_chase_finite_l(parse_database(FACTS), tgds)
        report = linear_module.is_chase_finite_l(
            parse_database(FACTS + "S(a,b).\n"), tgds, resume=first.simplification
        )
        assert report.finite
        assert _phases(report) == (0.0, 2.0, 4.0, 8.0)


class TestSimpleLinear:
    def test_a_finite_program_has_no_shapes_and_no_support_check(self, clock):
        report = simple_linear_module.is_chase_finite_sl(parse_database(FACTS), FINITE_RULES)
        assert report.finite
        assert _phases(report) == (1.0, 0.0, 4.0, 8.0)

    def test_the_support_check_is_comp_time(self, clock):
        report = simple_linear_module.is_chase_finite_sl(parse_database(FACTS), INFINITE_RULES)
        assert not report.finite
        assert _phases(report) == (1.0, 0.0, 4.0, 40.0)

    def test_a_tgdset_input_has_no_parse_time(self, clock):
        tgds = parse_rules(INFINITE_RULES)
        report = simple_linear_module.is_chase_finite_sl(parse_database(FACTS), tgds)
        assert _phases(report) == (0.0, 0.0, 4.0, 40.0)
