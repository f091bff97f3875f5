"""The compiled-rule graph builder against the TGD-object reference.

``build_dependency_graph`` walks compiled rules and writes the adjacency in
place; ``tests/graph/reference.py`` walks ``Atom`` and ``Variable`` objects
through the graph's public ``link``.  Both must give the same nodes, edges, node numbers, adjacency insertion order and
edge counts, on generated programs, the regression corpus, the literature
scenarios and hand cases.
"""

from pathlib import Path

import pytest

from repro.core.instances import Database
from repro.core.parser import parse_rules
from repro.core.predicates import Predicate, Schema
from repro.exceptions import NotSimpleLinearError
from repro.fuzz.corpus import load_corpus
from repro.generators import generate_tgds
from repro.generators.tgd_generator import make_schema
from repro.graph.dependency_graph import (
    _build,
    _link_empty_frontier,
    build_dependency_graph,
    build_support_graph,
)
from repro.scenarios import IBENCH_MEMBERS, build_deep, build_ibench, lubm_rules
from repro.termination.simple_linear import is_chase_finite_sl
from tests.graph.reference import (
    reference_dependency_graph,
    reference_support_graph,
)

CORPUS = Path(__file__).resolve().parents[1] / "regressions" / "corpus"


def anatomy(graph):
    """Everything observable about a graph, insertion order included."""
    return (
        graph.nodes(),
        [str(edge) for edge in graph.edges()],
        [graph.position(node) for node in range(len(graph))],
        [list(edges.items()) for edges in graph.forward],
        [list(edges.items()) for edges in graph.reverse],
        graph.edge_count(),
        graph.special_edge_count(),
    )


def generated(tclass, seed):
    schema = make_schema(40, min_arity=1, max_arity=4, seed=seed)
    return generate_tgds(schema, 25, 1, 4, 150, tclass, seed=seed)


HAND_CASES = {
    "empty frontier": "R(x) -> S(z)\nS(y) -> T(y,w)",
    "multi-atom body and head": "R(x,y), S(y,z) -> T(x,w), U(w,z,y)\nT(x,y) -> R(y,x)",
    "repeated head variable": "R(x,y) -> S(y,y,z,z)\nS(x,y,z,w) -> R(w,x)",
    "repeated body variable": "R(x,x,y) -> S(x,z)\nS(x,y) -> R(y,y,x)",
    "nullary predicate": "N() -> P(z), N()\nP(x) -> N()\nP(x) -> Q(x,y)",
    "duplicate lines": "R(x,y) -> S(y,z)\nR(x,y) -> S(y,z)\nR(a,b) -> S(b,c)\nS(x,y) -> R(y,x)",
}


def programs():
    for tclass in ("SL", "L"):
        for seed in (1, 7, 31):
            yield f"generated {tclass} seed {seed}", generated(tclass, seed)
    for case in load_corpus(CORPUS):
        yield f"corpus {case.name}", parse_rules(case.rules_text)
    yield "LUBM", lubm_rules()
    for member in IBENCH_MEMBERS:
        yield f"iBench {member}", build_ibench(member, tuples_per_source=1).tgds
    yield "Deep-300", build_deep("Deep-300").tgds
    for name, text in HAND_CASES.items():
        yield f"hand {name}", parse_rules(text)


PROGRAMS = dict(programs())


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_the_builder_matches_the_reference(name):
    tgds = PROGRAMS[name]
    assert anatomy(build_dependency_graph(tgds)) == anatomy(reference_dependency_graph(tgds))


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_the_support_graph_matches_the_reference(name):
    tgds = PROGRAMS[name]
    assert anatomy(build_support_graph(tgds)) == anatomy(reference_support_graph(tgds))


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_a_copy_plus_the_empty_frontier_edges_is_the_support_graph(name):
    # What IsChaseFinite[SL] does when a special SCC needs the support check.
    tgds = PROGRAMS[name]
    graph, empty_frontier = _build(tgds)
    support = graph.copy()
    _link_empty_frontier(support, empty_frontier)
    assert anatomy(support) == anatomy(reference_support_graph(tgds))
    assert anatomy(graph) == anatomy(reference_dependency_graph(tgds))
    assert empty_frontier == [tgd.rule for tgd in tgds if tgd.has_empty_frontier()]


def test_the_sl_check_names_the_first_offender_and_the_walk_takes_any_rule():
    tgds = parse_rules("R(x,y) -> S(y,z)\nS(x,x) -> R(x,z)\nR(x,y), S(y,z) -> T(x)")
    with pytest.raises(NotSimpleLinearError, match=r"^TGD S\(\?x, \?x\) -> R\(\?x, \?z\) is"):
        is_chase_finite_sl(Database(), tgds)
    graph, _ = _build(tgds)
    assert anatomy(graph) == anatomy(reference_dependency_graph(tgds))


def test_a_schema_given_to_the_parser_does_not_add_nodes():
    schema = Schema([Predicate("Extra", 3)])
    tgds = parse_rules("R(x,y) -> S(y,z)", schema=schema)
    assert anatomy(build_dependency_graph(tgds)) == anatomy(reference_dependency_graph(tgds))
    assert len(build_dependency_graph(tgds)) == 4
