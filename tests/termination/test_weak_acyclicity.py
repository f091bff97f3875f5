"""(Non-uniform) weak acyclicity, read off the paper's own checkers.

Uniform weak acyclicity is ``not find_special_sccs(build_dependency_graph(Σ))``;
``Σ`` being weakly acyclic w.r.t. ``D`` (Definition 3.2) is what
``IsChaseFinite[SL]`` (Algorithm 1) decides for simple-linear ``Σ``.

``TestWeakAcyclicityOracle`` checks "weakly acyclic ⇒ finite" against the
checkers and the chase on the graph differential's programs and on every
adversarial family.
"""

import pytest

from repro.chase.engine import SemiObliviousChase
from repro.chase.result import ChaseLimits
from repro.core.instances import induced_database
from repro.core.parser import parse_database, parse_rules
from repro.generators.adversarial import adversarial_cases
from repro.graph.dependency_graph import build_dependency_graph
from repro.graph.tarjan import find_special_sccs
from repro.termination.linear import is_chase_finite_l
from repro.termination.simple_linear import is_chase_finite_sl
from tests.graph.test_graph_differential import PROGRAMS

#: Atoms the chase may materialise before the oracle stops it.
CHASE_BUDGET = 2_000

ADVERSARIAL = {case.name: case for seed in (0, 1, 2) for case in adversarial_cases(seed=seed)}


def weakly_acyclic(rules):
    return not find_special_sccs(build_dependency_graph(rules))


class TestUniformWeakAcyclicity:
    def test_acyclic_rules(self):
        assert weakly_acyclic(parse_rules("R(x,y) -> S(y,z)\nS(x,y) -> T(x)"))

    def test_special_cycle(self):
        assert not weakly_acyclic(parse_rules("R(x,y) -> R(y,z)"))

    def test_normal_cycle_is_fine(self):
        assert weakly_acyclic(parse_rules("R(x,y) -> S(y,x)\nS(x,y) -> R(y,x)"))

    def test_indirect_special_cycle(self):
        rules = parse_rules("R(x,y) -> S(y,z)\nS(x,y) -> R(x,y)")
        assert not weakly_acyclic(rules)

    def test_multi_body_rules_supported(self):
        # The existential position (T,2) feeds back into (R,1), which drives the rule again.
        rules = parse_rules("R(x,y), S(y,w) -> T(x,z)\nT(x,y) -> R(y,x)")
        assert not weakly_acyclic(rules)
        # Without the feedback through the existential position the set is weakly acyclic.
        rules2 = parse_rules("R(x,y), S(y,w) -> T(x,z)\nT(x,y) -> R(x,y)")
        assert weakly_acyclic(rules2)


class TestNonUniformWeakAcyclicity:
    def test_supported_cycle(self):
        rules = parse_rules("R(x,y) -> R(y,z)")
        assert not is_chase_finite_sl(parse_database("R(a,b)."), rules).finite

    def test_unsupported_cycle(self):
        # The bad cycle lives on S, and nothing in the database can ever reach S.
        rules = parse_rules("S(x,y) -> S(y,z)\nR(x,y) -> T(y,x)")
        assert is_chase_finite_sl(parse_database("R(a,b)."), rules).finite
        assert not is_chase_finite_sl(parse_database("S(a,b)."), rules).finite

    def test_weak_acyclicity_implies_non_uniform(self):
        rules = parse_rules("R(x,y) -> S(y,z)\nS(x,y) -> T(x)")
        assert weakly_acyclic(rules)
        assert is_chase_finite_sl(parse_database("R(a,b)."), rules).finite

    def test_empty_database_is_always_weakly_acyclic_wrt(self):
        rules = parse_rules("R(x,y) -> R(y,z)")
        assert is_chase_finite_sl(parse_database(""), rules).finite

    def test_an_empty_frontier_rule_supports_the_cycle(self):
        # A(x) -> R(y) reaches R through no position: only the empty-frontier
        # support edge links the database's A to the special cycle on R/S.
        rules = parse_rules("A(x) -> R(y)\nR(x) -> S(x,z)\nS(x,z) -> R(z)")
        database = parse_database("A(a).")
        assert not is_chase_finite_sl(database, rules).finite
        limits = ChaseLimits(max_atoms=200, max_rounds=None)
        assert not SemiObliviousChase(limits=limits).run(database, rules).terminated


def check_weak_acyclicity_oracle(database, rules):
    """Weakly acyclic ⇒ finite; a chase that reaches its fixpoint is finite;
    Algorithms 1 and 3 agree on simple-linear rules.  Return the verdict of
    Algorithm 3, or ``None`` for rules that are not linear."""
    weakly_acyclic = not find_special_sccs(build_dependency_graph(rules))
    limits = ChaseLimits(max_atoms=CHASE_BUDGET, max_rounds=None)
    chase = SemiObliviousChase(limits=limits).run(database, rules)
    if not rules.is_linear():
        # No checker decides these; the inputs are small enough that a
        # weakly acyclic chase stops well inside the budget.
        assert chase.terminated or not weakly_acyclic
        return None
    finite = is_chase_finite_l(database, rules).finite
    assert finite or not weakly_acyclic
    assert finite or not chase.terminated
    if rules.is_simple_linear():
        assert is_chase_finite_sl(database, rules).finite == finite
    return finite


class TestWeakAcyclicityOracle:
    @pytest.mark.parametrize("name", list(PROGRAMS))
    def test_on_the_induced_database(self, name):
        # D_Σ holds every predicate, so it supports every special SCC and
        # Algorithm 1 answers exactly "weakly acyclic" (Remark 1).
        rules = PROGRAMS[name]
        finite = check_weak_acyclicity_oracle(induced_database(rules), rules)
        if rules.is_simple_linear():
            assert finite == (not find_special_sccs(build_dependency_graph(rules)))

    @pytest.mark.parametrize("name", list(ADVERSARIAL))
    def test_on_an_adversarial_case(self, name):
        case = ADVERSARIAL[name]
        check_weak_acyclicity_oracle(case.database, case.tgds)
