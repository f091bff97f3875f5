"""The simplification oracle: compiled plans vs the reference interpreter.

``repro.simplification.plans`` is the one implementation of Algorithm 2's
transfer under ``src/``; ``tests/simplification/reference.py`` is the
per-pair interpreter it replaced.  This suite is the licence for that
replacement.  Over hypothesis-drawn linear rule sets (repeated body
variables, repeated head variables, multi-atom heads sharing an existential,
empty frontiers, nullary predicates, one name at two arities), every
generator family and the committed fuzz corpus it holds that

* ``simple_D(Σ)`` from plans is set-equal to the interpreter's, label for
  label, with the same derived shapes and iteration count;
* the graph the fixpoint emits equals ``build_dependency_graph`` of the
  materialised rules node for node, edge for edge, flag for flag;
* static simplification equals the interpreter's enumeration;
* resuming over a ladder of growing shape sets equals starting over, and
  leaves the result it resumed from untouched;
* ``extend_dependency_graph`` equals a rebuild over any split of the rules;
* ``IsChaseFinite[SL]`` and ``IsChaseFinite[L]`` agree on simple-linear input.

Run with ``HYPOTHESIS_PROFILE=ci`` for the pinned 200-example sweep.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, note
from hypothesis import strategies as st

from repro.core.atoms import Atom
from repro.core.predicates import Predicate
from repro.core.serializer import serialize_rules
from repro.core.terms import Variable
from repro.core.tgds import TGD, TGDSet
from repro.fuzz.corpus import load_corpus
from repro.generators import (
    FAMILY_NAMES,
    generate_case,
    generate_database,
    generate_tgds,
    make_schema,
)
from repro.graph import (
    build_dependency_graph,
    extend_dependency_graph,
    find_special_sccs,
)
from repro.scenarios import build_scenario
from repro.simplification import (
    Shape,
    dynamic_simplification,
    identifier_tuples_of_arity,
    resume_dynamic_simplification,
    shapes_of_database,
    static_simplification,
)
from repro.storage import InMemoryShapeFinder
from repro.termination import is_chase_finite_l, is_chase_finite_sl
from tests.property.strategies import databases, linear_programs
from tests.simplification import reference

CORPUS = Path(__file__).resolve().parents[1] / "regressions" / "corpus"

#: ``R`` at two arities and a nullary ``N`` on purpose.
PREDICATES = (
    Predicate("N", 0),
    Predicate("P", 1),
    Predicate("R", 2),
    Predicate("R", 3),
    Predicate("S", 3),
    Predicate("T", 4),
)
BODY_VARIABLES = tuple(Variable(name) for name in ("x1", "x2", "x3", "x4"))
EXISTENTIALS = tuple(Variable(name) for name in ("z1", "z2"))


@st.composite
def gnarly_linear_tgds(draw) -> TGD:
    """A linear TGD with every feature the transfer has a branch for."""
    predicate = draw(st.sampled_from(PREDICATES))
    body_terms = tuple(
        draw(st.sampled_from(BODY_VARIABLES[: predicate.arity])) for _ in range(predicate.arity)
    )
    # Existentials are shared across the head atoms; a head without a body
    # variable (an empty frontier) is allowed.
    pool = tuple(dict.fromkeys(body_terms)) + EXISTENTIALS
    head = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        head_predicate = draw(st.sampled_from(PREDICATES))
        head.append(
            Atom(
                head_predicate,
                tuple(draw(st.sampled_from(pool)) for _ in range(head_predicate.arity)),
            )
        )
    label = draw(st.sampled_from(("a", "b", None)))
    return TGD((Atom(predicate, body_terms),), tuple(head), label=label)


@st.composite
def shape_sets(draw):
    """Shapes over the vocabulary, including arities no rule body has."""
    names = ("N", "P", "R", "S", "T", "U")
    shapes = set()
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        arity = draw(st.integers(min_value=0, max_value=4))
        identifiers = draw(st.sampled_from(list(identifier_tuples_of_arity(arity))))
        shapes.add(Shape(draw(st.sampled_from(names)), identifiers))
    return shapes


@st.composite
def gnarly_programs(draw):
    rules = draw(st.lists(gnarly_linear_tgds(), min_size=1, max_size=5))
    return draw(shape_sets()), TGDSet(rules)


def graph_signature(graph):
    """Nodes, collapsed edges with their flags, and the three counters."""
    return (
        graph.nodes(),
        tuple(graph.edges()),
        len(graph),
        graph.edge_count(),
        graph.special_edge_count(),
    )


def labelled(tgds):
    return {(rule, rule.label) for rule in tgds}


def assert_plans_match_the_interpreter(shapes, tgds):
    compiled = dynamic_simplification(shapes, tgds)
    interpreted = reference.dynamic_simplification(shapes, tgds)
    assert labelled(compiled.tgds) == labelled(interpreted.tgds)
    assert compiled.rule_count == len(compiled.tgds) == len(interpreted.tgds)
    assert compiled.derived_shapes == interpreted.derived_shapes
    assert compiled.initial_shapes == interpreted.initial_shapes
    assert compiled.iterations == interpreted.iterations
    emitted = graph_signature(compiled.dependency_graph())
    assert emitted == graph_signature(build_dependency_graph(compiled.tgds))
    assert emitted == graph_signature(build_dependency_graph(interpreted.tgds))
    return compiled


def assert_resume_matches_scratch(shapes, tgds, rng):
    """Resume along a random ladder of growing prefixes of *shapes*."""
    ordered = sorted(shapes)
    rng.shuffle(ordered)
    cuts = sorted({rng.randint(0, len(ordered)) for _ in range(3)} | {len(ordered)})
    resumed = None
    for cut in cuts:
        view = set(ordered[:cut])
        scratch = dynamic_simplification(view, tgds)
        if resumed is None:
            resumed = dynamic_simplification(view, tgds)
            continue
        previous, before = resumed, graph_signature(resumed.dependency_graph())
        resumed = resume_dynamic_simplification(previous, view, tgds)
        assert resumed.tgds == scratch.tgds
        assert resumed.rule_count == scratch.rule_count
        assert resumed.derived_shapes == scratch.derived_shapes
        assert resumed.initial_shapes == scratch.initial_shapes
        assert graph_signature(resumed.dependency_graph()) == graph_signature(
            scratch.dependency_graph()
        )
        # What is new is the tail; what was resumed from is as it was.
        assert resumed.tgds.tgds[: len(previous.tgds)] == previous.tgds.tgds
        assert graph_signature(previous.dependency_graph()) == before


def assert_extend_matches_rebuild(tgds, rng):
    rules = list(tgds)
    cuts = sorted({rng.randint(0, len(rules)) for _ in range(2)})
    graph = build_dependency_graph(TGDSet(rules[: cuts[0]]))
    done = cuts[0]
    for cut in cuts[1:] + [len(rules)]:
        extend_dependency_graph(graph, rules[done:cut])
        done = cut
        assert graph_signature(graph) == graph_signature(build_dependency_graph(TGDSet(rules[:cut])))


def special_components(graph):
    return {scc.nodes for scc in find_special_sccs(graph)}


class TestOnDrawnPrograms:
    @given(gnarly_programs())
    def test_plans_match_the_interpreter(self, program):
        shapes, tgds = program
        note(f"{sorted(shapes)}\n{serialize_rules(tgds)}")
        compiled = assert_plans_match_the_interpreter(shapes, tgds)
        assert special_components(compiled.dependency_graph()) == special_components(
            build_dependency_graph(compiled.tgds)
        )

    @given(st.lists(gnarly_linear_tgds(), min_size=1, max_size=3).map(TGDSet))
    def test_static_matches_the_interpreter(self, tgds):
        note(serialize_rules(tgds))
        assert labelled(static_simplification(tgds)) == labelled(
            reference.static_simplification(tgds)
        )

    @given(gnarly_programs(), st.randoms(use_true_random=False))
    def test_resume_matches_scratch(self, program, rng):
        shapes, tgds = program
        note(f"{sorted(shapes)}\n{serialize_rules(tgds)}")
        assert_resume_matches_scratch(shapes, tgds, rng)

    @given(st.lists(gnarly_linear_tgds(), min_size=1, max_size=6), st.randoms(use_true_random=False))
    def test_extend_matches_rebuild(self, rules, rng):
        # One arity per name: the graph's schema rejects anything else.
        tgds = TGDSet(
            rule for rule in rules
            if all(atom.predicate != Predicate("R", 3) for atom in rule.body + rule.head)
        )
        note(serialize_rules(tgds))
        assert_extend_matches_rebuild(tgds, rng)

    @given(databases(), linear_programs())
    def test_sl_and_l_checkers_agree_on_simple_linear_input(self, database, tgds):
        if not tgds.is_simple_linear():
            tgds = TGDSet(rule for rule in tgds if rule.is_simple_linear())
        note(serialize_rules(tgds))
        assert is_chase_finite_sl(database, tgds).finite == is_chase_finite_l(database, tgds).finite


def _generated(tclass, seed):
    schema = make_schema(30, min_arity=1, max_arity=4, seed=seed)
    tgds = generate_tgds(schema, 20, 1, 4, 60, tclass, seed=seed)
    store = generate_database(20, 1, 4, 100, 20, seed=seed + 100, schema=schema)
    return store, InMemoryShapeFinder(store).find_shapes(), tgds


def _family_programs():
    """(id, database-or-store, shapes, tgds) for every generator family."""
    for tclass in ("L", "SL"):
        for seed in (3, 11):
            yield (f"random-{tclass}-{seed}", *_generated(tclass, seed))
    for family in FAMILY_NAMES:
        case = generate_case(family, seed=1, scale=0.5)
        yield f"adversarial-{family}", case.database, shapes_of_database(case.database), case.tgds
    for name in ("LUBM-1", "STB-128", "ONT-256", "Deep-100"):
        scenario = build_scenario(name, scale=0.02)
        shapes = InMemoryShapeFinder(scenario.store).find_shapes()
        yield f"scenario-{name}", scenario.store, shapes, scenario.tgds
    for case in load_corpus(CORPUS):
        if case.expect == "parse-error":
            continue
        database, tgds = case.program()
        yield f"corpus-{case.name}", database, shapes_of_database(database), tgds


FAMILY_PROGRAMS = [
    pytest.param(database, shapes, tgds, id=name)
    for name, database, shapes, tgds in _family_programs()
    if tgds.is_linear()
]


class TestOnGeneratorFamiliesAndTheCorpus:
    def test_the_sweep_is_not_vacuous(self):
        kinds = {param.id.split("-")[0] for param in FAMILY_PROGRAMS}
        assert kinds == {"random", "adversarial", "scenario", "corpus"}

    @pytest.mark.parametrize("database, shapes, tgds", FAMILY_PROGRAMS)
    def test_plans_match_the_interpreter(self, database, shapes, tgds):
        compiled = assert_plans_match_the_interpreter(shapes, tgds)
        report = is_chase_finite_l(shapes, tgds)
        assert report.finite == (not special_components(build_dependency_graph(compiled.tgds)))

    @pytest.mark.parametrize("database, shapes, tgds", FAMILY_PROGRAMS)
    def test_resume_and_extend_match_scratch(self, database, shapes, tgds):
        rng = random.Random(7)
        assert_resume_matches_scratch(shapes, tgds, rng)
        assert_extend_matches_rebuild(dynamic_simplification(shapes, tgds).tgds, rng)

    @pytest.mark.parametrize("database, shapes, tgds", FAMILY_PROGRAMS)
    def test_static_matches_the_interpreter(self, database, shapes, tgds):
        if tgds.max_arity() > 4:
            pytest.skip("static simplification is exponential in the arity")
        assert labelled(static_simplification(tgds)) == labelled(
            reference.static_simplification(tgds)
        )

    @pytest.mark.parametrize("database, shapes, tgds", FAMILY_PROGRAMS)
    def test_sl_and_l_checkers_agree_on_simple_linear_input(self, database, shapes, tgds):
        if not tgds.is_simple_linear():
            pytest.skip("not simple-linear")
        assert is_chase_finite_sl(database, tgds).finite == is_chase_finite_l(shapes, tgds).finite
