"""Both checkers run with the cyclic garbage collector paused.

A check frees everything it allocates by reference counting, so the
collector's passes over its live containers are pure overhead.  The pause
must end with the check however it ends, and must not switch on a collector
the caller had switched off.
"""

from __future__ import annotations

import gc

import pytest

import repro.termination.linear as linear_module
import repro.termination.simple_linear as simple_linear_module
from repro.core.parser import parse_database
from repro.exceptions import NotLinearError, NotSimpleLinearError, ParseError
from repro.termination import is_chase_finite_l, is_chase_finite_sl

DATABASE = parse_database("R(a,b).\nR(c,c).\nS(a,b).")
#: Per checker: its module, rules it accepts, and rules outside its class with
#: the error they raise.
CHECKERS = {
    "L": (is_chase_finite_l, linear_module,
          "R(x,y) -> S(y,z)\nS(x,x) -> R(x,x)\nS(x,y) -> R(y,x)",
          "R(x,y), S(y,z) -> T(x)", NotLinearError),
    "SL": (is_chase_finite_sl, simple_linear_module,
           "R(x,y) -> S(y,z)\nS(x,y) -> R(y,x)",
           "R(x,x) -> S(x)", NotSimpleLinearError),
}


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Start the test with the collector in the given state; restore it after."""
    enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("algorithm", sorted(CHECKERS))
def test_the_collector_is_paused_during_a_check_and_restored_after(
    algorithm, collector, monkeypatch
):
    check, module, rules, _outside, _error = CHECKERS[algorithm]
    parse = module.parse_rules
    during = []

    def recording_parse(text):
        during.append(gc.isenabled())
        return parse(text)

    monkeypatch.setattr(module, "parse_rules", recording_parse)
    report = check(DATABASE, rules)
    assert report.statistics["n_rules"] == rules.count("->")
    assert during == [False]
    assert gc.isenabled() is collector


@pytest.mark.parametrize("algorithm", sorted(CHECKERS))
def test_the_collector_is_restored_when_a_check_raises(algorithm, collector):
    check, _module, _rules, outside, error = CHECKERS[algorithm]
    with pytest.raises(error):
        check(DATABASE, outside)
    assert gc.isenabled() is collector
    with pytest.raises(ParseError):
        check(DATABASE, "R(x,y -> S(y)")
    assert gc.isenabled() is collector


@pytest.mark.parametrize("algorithm", sorted(CHECKERS))
def test_a_check_leaves_no_garbage_cycle(algorithm, collector):
    check, _module, rules, _outside, _error = CHECKERS[algorithm]
    check(DATABASE, rules)  # first-use caches are reachable, not garbage
    gc.collect()
    gc.disable()
    report = check(DATABASE, rules)
    assert not gc.isenabled()
    del report
    assert gc.collect() == 0
