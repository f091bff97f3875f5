"""The product runs on compiled rules from builder or rule text to fixpoint.

``parse_rules`` fills the set with compiled rules, and the graph builder,
the simple-linearity check and the transfer plans read them, so a checker
given rule text builds no :class:`~repro.core.tgds.TGD` at all.  The
scenario, adversarial and skew builders compile rules from variable names,
and the chase (every engine, both backends, the pushdown strategy) and
``satisfies`` read ``TGDSet.rules``, so neither builds one either.
"""

import pytest

from repro.chase import chase, satisfies
from repro.core.instances import induced_database
from repro.core.parser import parse_database, parse_rules
from repro.core.serializer import serialize_rules
from repro.core.tgds import TGD
from repro.generators import FAMILY_NAMES, generate_case, generate_skew_workload, generate_tgds
from repro.generators.tgd_generator import make_schema
from repro.scenarios import build_scenario, scenario_names
from repro.termination.linear import is_chase_finite_l
from repro.termination.simple_linear import is_chase_finite_sl

# An empty-frontier rule is the only way P reaches the N/M cycle, so the
# verdict depends on the support graph.
EMPTY_FRONTIER_RULES = "P(x) -> N(z)\nN(x) -> M(x,y)\nM(x,y) -> N(y)\n"


@pytest.fixture
def tgd_constructions(monkeypatch):
    """The list of TGD constructions (``of`` or ``__init__``) made while the test runs."""
    made = []
    of, init = TGD.of.__func__, TGD.__init__

    def counting_of(cls, rule):
        made.append("of")
        return of(cls, rule)

    def counting_init(self, *args, **kwargs):
        made.append("__init__")
        init(self, *args, **kwargs)

    monkeypatch.setattr(TGD, "of", classmethod(counting_of))
    monkeypatch.setattr(TGD, "__init__", counting_init)
    return made


def generated_text(tclass, seed=3):
    schema = make_schema(30, min_arity=1, max_arity=4, seed=seed)
    return serialize_rules(generate_tgds(schema, 20, 1, 4, 200, tclass, seed=seed))


def test_the_counter_sees_constructions(tgd_constructions):
    list(parse_rules("R(x,y) -> S(y,z)\nS(x,y) -> T(x)"))
    assert tgd_constructions == ["of", "of"]


@pytest.mark.parametrize("facts", ["P(a).", "Q(a)."])
def test_the_sl_check_builds_no_tgd(tgd_constructions, facts):
    text = generated_text("SL")
    database, seed = induced_database(parse_rules(text)), parse_database(facts)
    tgd_constructions.clear()
    report = is_chase_finite_sl(database, text)
    is_chase_finite_sl(seed, EMPTY_FRONTIER_RULES)
    assert tgd_constructions == []
    assert report.statistics["n_special_sccs"] > 0


def test_the_l_check_builds_no_tgd(tgd_constructions):
    text = generated_text("L")
    database = induced_database(parse_rules(text))
    tgd_constructions.clear()
    report = is_chase_finite_l(database, text)
    assert tgd_constructions == []
    assert report.statistics["n_simplified_rules"] > 0


def test_the_sl_check_reaches_a_cycle_only_through_an_empty_frontier_rule():
    infinite = is_chase_finite_sl(parse_database("P(a)."), EMPTY_FRONTIER_RULES)
    finite = is_chase_finite_sl(parse_database("Q(a)."), EMPTY_FRONTIER_RULES)
    assert not infinite.finite and infinite.statistics["supported"] == 1
    assert finite.finite and finite.statistics["supported"] == 0
    assert infinite.statistics["n_special_sccs"] == finite.statistics["n_special_sccs"] == 1


def test_the_builders_build_no_tgd(tgd_constructions):
    built = [build_scenario(name, scale=0.01).tgds for name in scenario_names()]
    built += [generate_case(family, seed=seed).tgds for family in FAMILY_NAMES for seed in (0, 1)]
    built.append(generate_skew_workload().tgds)
    assert tgd_constructions == []
    assert all(len(tgds) > 0 for tgds in built)


# A join, a repeated existential across a two-atom head, and a nullary head.
CHASE_RULES = "R(x,y), S(y,z) -> T(x,w), U(w,z)\nU(x,y) -> V(y)\nV(x) -> D()\n"
CHASE_FACTS = "R(a,b).\nS(b,c).\nS(b,d).\n"


@pytest.mark.parametrize("variant", ["oblivious", "semi-oblivious", "restricted"])
@pytest.mark.parametrize(
    "backend, strategy",
    [("instance", "indexed"), ("sqlite", "indexed"), ("sqlite", "sql-pushdown")],
)
def test_the_chase_and_satisfies_build_no_tgd(tgd_constructions, variant, backend, strategy):
    tgds, database = parse_rules(CHASE_RULES), parse_database(CHASE_FACTS)
    result = chase(database, tgds, variant=variant, backend=backend, strategy=strategy)
    assert result.terminated and result.atoms_created > 0
    assert satisfies(result.store, tgds)
    assert tgd_constructions == []
