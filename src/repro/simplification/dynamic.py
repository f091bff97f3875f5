"""Dynamic simplification (Section 4.2, Algorithm 2).

Static simplification blows up exponentially with the arity, so the paper
refines it: given the database ``D``, only the simplified TGDs whose body
shape is *derivable* from the shapes of ``D`` (via the immediate-consequence
operator ``Γ_Σ``) can ever fire during the chase of ``simple(D)`` with
``simple(Σ)``; all the others are superfluous.  ``simple_D(Σ)`` keeps exactly
the derivable ones and, crucially, checking its weak acyclicity no longer
needs the database-support check (Lemma 4.5).

The implementation mirrors Algorithm 2 and the engineering described in
Section 5.4:

* the database shapes are obtained through a pluggable ``shape_source`` —
  either directly from a :class:`~repro.core.instances.Database`, or from the
  storage substrate's in-memory / in-database ``FindShapes`` implementations;
* every TGD is compiled once into a :class:`~.plans.TransferPlan`, and an
  index from body predicates to plans provides fast access to the rules that
  can consume a newly derived shape;
* at each iteration only the *new* shapes (``ΔS``) are processed — because the
  TGDs are linear, a TGD applicable on an old shape was already applied in a
  previous iteration;
* a rule that transfers puts its edges straight into ``dg(simple_D(Σ))``, so
  ``BuildDepGraph`` is not a second pass and the simplified TGDs need not
  exist as objects unless a caller asks for them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.tgds import TGDSet
from ..graph.dependency_graph import DependencyGraph
from .plans import Identifiers, TransferPlan, plans_by_body
from .shapes import Shape, resolve_shapes

ShapeKey = Tuple[str, Identifiers]


class _Fixpoint:
    """Algorithm 2's state: what is known, and the graph it already implies.

    Shapes are keyed by plain tuples, so asking about one builds no :class:`Shape`.
    """

    def __init__(self, previous: Optional["_Fixpoint"] = None):
        #: Every derived shape.
        self.shapes: Dict[ShapeKey, Shape] = dict(previous.shapes) if previous else {}
        #: ``simple_D(Σ)`` in derivation order: each rule's syntax (shapes and
        #: terms — two TGDs can simplify to one rule, the first wins) to its
        #: (plan, body identifiers).
        self.rules: Dict[object, Tuple[TransferPlan, Identifiers]] = (
            dict(previous.rules) if previous else {}
        )
        #: ``dg(simple_D(Σ))`` and, per shape occurring in a rule, its nodes.
        self.graph: DependencyGraph = previous.graph.copy() if previous else DependencyGraph()
        self.nodes: Dict[ShapeKey, List[int]] = dict(previous.nodes) if previous else {}

    def _nodes_of(self, key: ShapeKey) -> List[int]:
        nodes = self.nodes.get(key)
        if nodes is None:
            nodes = self.nodes[key] = self.graph.add_predicate(self.shapes[key].as_predicate())
        return nodes

    def run(self, new_shapes: Iterable[Shape], tgds: TGDSet) -> int:
        """Run the while loop from the frontier *new_shapes*; return the iteration count."""
        plans = plans_by_body(tgds.tgds)
        shapes, rules, link = self.shapes, self.rules, self.graph.link
        delta: List[ShapeKey] = []
        for shape in new_shapes:
            key = (shape.predicate_name, shape.identifiers)
            if key not in shapes:
                shapes[key] = shape
                delta.append(key)
        iterations = 0
        while delta:
            iterations += 1
            produced: List[ShapeKey] = []
            for key in delta:
                name, identifiers = key
                for plan in plans.get((name, len(identifiers)), ()):
                    transferred = plan.transfer(identifiers)
                    if transferred is None:
                        continue
                    body_terms, heads, normal, special = transferred
                    syntax = (key, body_terms, heads)
                    if syntax in rules:
                        continue
                    rules[syntax] = (plan, identifiers)
                    head_nodes = []
                    for head_name, head_identifiers, _terms in heads:
                        head_key = (head_name, head_identifiers)
                        if head_key not in shapes:
                            shapes[head_key] = Shape(head_name, head_identifiers)
                            produced.append(head_key)
                        head_nodes.append(self._nodes_of(head_key))
                    body_nodes = self._nodes_of(key)
                    for position, head, place in normal:
                        link(body_nodes[position - 1], head_nodes[head][place - 1], False)
                    if special:
                        for position in {edge[0] for edge in normal}:
                            source = body_nodes[position - 1]
                            for head, place in special:
                                link(source, head_nodes[head][place - 1], True)
            delta = produced
        return iterations


class DynamicSimplificationResult:
    """Output of :func:`dynamic_simplification` with bookkeeping for experiments.

    Attributes
    ----------
    derived_shapes:
        ``Σ(shape(D))`` — every shape derived during the fixpoint.
    initial_shapes:
        ``shape(D)`` — the shapes contributed by the database.
    iterations:
        Number of fixpoint iterations executed (Algorithm 2's while loop).

    The fixpoint produces ``dg(simple_D(Σ))`` directly; the simplified TGDs
    themselves are only built when :attr:`tgds` is read.
    """

    def __init__(self, fixpoint: _Fixpoint, initial_shapes: Set[Shape], iterations: int):
        self.derived_shapes: Set[Shape] = set(fixpoint.shapes.values())
        self.initial_shapes = initial_shapes
        self.iterations = iterations
        self._fixpoint = fixpoint
        self._tgds: Optional[TGDSet] = None

    @property
    def rule_count(self) -> int:
        """``|simple_D(Σ)|``, without building the rules."""
        return len(self._fixpoint.rules)

    def dependency_graph(self) -> DependencyGraph:
        """Return ``dg(simple_D(Σ))`` — equal to ``build_dependency_graph(self.tgds)``."""
        return self._fixpoint.graph

    @property
    def tgds(self) -> TGDSet:
        """The set ``simple_D(Σ)`` of simple-linear TGDs, in derivation order."""
        if self._tgds is None:
            self._tgds = TGDSet(
                rule
                for plan, identifiers in self._fixpoint.rules.values()
                if (rule := plan.simplify(identifiers)) is not None
            )
        return self._tgds


def dynamic_simplification(
    database_or_shapes,
    tgds: TGDSet,
) -> DynamicSimplificationResult:
    """``DynSimplification(D, Σ)``: compute ``simple_D(Σ)`` (Algorithm 2).

    Parameters
    ----------
    database_or_shapes:
        Either a :class:`~repro.core.instances.Database` (its shapes are
        computed directly), a set of :class:`Shape` (already computed, e.g.
        by one of the storage substrate's ``FindShapes`` implementations), or
        any object with a ``find_shapes()`` method.
    tgds:
        The set of linear TGDs ``Σ``.
    """
    tgds.require_linear()
    initial_shapes = resolve_shapes(database_or_shapes)
    fixpoint = _Fixpoint()
    iterations = fixpoint.run(initial_shapes, tgds)
    return DynamicSimplificationResult(fixpoint, set(initial_shapes), iterations)


def resume_dynamic_simplification(
    previous: DynamicSimplificationResult,
    database_or_shapes,
    tgds: TGDSet,
) -> DynamicSimplificationResult:
    """Continue Algorithm 2's fixpoint from *previous* with more database shapes.

    The prefix views of Section 8.1 grow monotonically, so the shape set of
    view ``i+1`` is a superset of view ``i``'s.  Because ``Γ_Σ`` is monotone,
    the ``simple_D(Σ)`` fixpoint for the larger view can be obtained by
    seeding Algorithm 2's frontier with only the shapes *not already known*
    at the previous view and continuing from the previous fixpoint — the
    result (rules, shapes and dependency graph) is identical to a
    from-scratch run on the larger view.  *previous* is left untouched.

    The returned result's :attr:`~DynamicSimplificationResult.tgds` preserves
    the derivation order of *previous* followed by the newly derived rules:
    the tail ``result.tgds.tgds[len(previous.tgds):]`` is what is new.

    ``iterations`` counts only the iterations of this resumption.
    """
    tgds.require_linear()
    new_shapes = resolve_shapes(database_or_shapes)
    fixpoint = _Fixpoint(previous._fixpoint)
    iterations = fixpoint.run(new_shapes, tgds)
    return DynamicSimplificationResult(
        fixpoint, set(previous.initial_shapes) | new_shapes, iterations
    )
