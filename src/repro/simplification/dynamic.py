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

* the database shapes come in as a set of :class:`~.shapes.Shape`, resolved
  once by the caller (``IsChaseFinite[L]`` resolves any row store or
  ``FindShapes`` implementation with :func:`~.shapes.resolve_shapes`);
* every compiled rule is turned once into a :class:`~.plans.TransferPlan`, and an
  index from body predicates to plans provides fast access to the rules that
  can consume a newly derived shape;
* at each iteration only the *new* shapes (``ΔS``) are processed — because the
  TGDs are linear, a TGD applicable on an old shape was already applied in a
  previous iteration;
* each (rule, shape) pair is decided on integers (:meth:`~.plans.TransferPlan.core`):
  a rule that transfers puts its edges straight into ``dg(simple_D(Σ))``, so
  ``BuildDepGraph`` is not a second pass and the simplified TGDs need not
  exist as objects unless a caller asks for them;
* two rules can simplify to one rule only when they share the body predicate
  and the sequence of head predicate names; only those rules' pairs are
  deduplicated on the simplified rule's names (the first wins), and every
  other pair is keyed by its rule's index in ``TGDSet.rules`` and the body
  shape, which a resumed fixpoint recompiles to the same key.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.tgds import TGDSet
from ..graph.dependency_graph import DependencyGraph
from .plans import Identifiers, TransferPlan, plans_by_body
from .shapes import Shape

ShapeKey = Tuple[str, Identifiers]


class _Fixpoint:
    """Algorithm 2's state: what is known, and the graph it already implies.

    Shapes are keyed by plain tuples, so asking about one builds no :class:`Shape`.
    """

    def __init__(self, previous: Optional["_Fixpoint"] = None):
        #: Every derived shape.
        self.shapes: Dict[ShapeKey, Shape] = dict(previous.shapes) if previous else {}
        #: ``simple_D(Σ)`` in derivation order, each rule's key to its (plan,
        #: body identifiers).  A shared plan's key is the simplified rule's
        #: syntax (two TGDs can simplify to one rule, the first wins); any
        #: other plan's is ``(rule index, body identifiers)``.
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
        plans = plans_by_body(tgds.rules)
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
                    core = plan.core(identifiers)
                    if core is None:
                        continue
                    # Only a shared plan can meet another rule's simplification.
                    rule: object = (plan.index, identifiers)
                    if plan.shared:
                        rule = plan.syntax(identifiers, core)
                    if rule in rules:
                        continue
                    rules[rule] = (plan, identifiers)
                    _images, heads, normal, special = core
                    head_nodes = []
                    for head_key in heads:
                        if head_key not in shapes:
                            shapes[head_key] = Shape(*head_key)
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
            self._tgds = TGDSet()
            for plan, identifiers in self._fixpoint.rules.values():
                rule = plan.simplify(identifiers)
                if rule is not None:
                    self._tgds.add_rule(rule)
        return self._tgds


def dynamic_simplification(shapes: Set[Shape], tgds: TGDSet) -> DynamicSimplificationResult:
    """``DynSimplification(D, Σ)``: compute ``simple_D(Σ)`` (Algorithm 2).

    Parameters
    ----------
    shapes:
        ``shape(D)``, the database's shapes, already found (e.g. by
        :func:`~.shapes.shapes_of_database` or one of the storage substrate's
        ``FindShapes`` implementations).
    tgds:
        The set of linear TGDs ``Σ``; a non-linear rule raises
        :class:`~repro.exceptions.NotLinearError` when its transfer plan is
        compiled, before any shape is processed.
    """
    fixpoint = _Fixpoint()
    iterations = fixpoint.run(shapes, tgds)
    return DynamicSimplificationResult(fixpoint, set(shapes), iterations)


def resume_dynamic_simplification(
    previous: DynamicSimplificationResult,
    shapes: Set[Shape],
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
    *tgds* must be the rule set *previous* was computed for: recorded rules
    are keyed by their position in it.

    The returned result's :attr:`~DynamicSimplificationResult.tgds` preserves
    the derivation order of *previous* followed by the newly derived rules:
    the tail ``result.tgds.tgds[len(previous.tgds):]`` is what is new.

    ``iterations`` counts only the iterations of this resumption.
    """
    fixpoint = _Fixpoint(previous._fixpoint)
    iterations = fixpoint.run(shapes, tgds)
    return DynamicSimplificationResult(
        fixpoint, previous.initial_shapes.union(shapes), iterations
    )
