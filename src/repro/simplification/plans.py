"""Shape-transfer plans: Algorithm 2's ``Applicable`` step, compiled per rule.

For a linear TGD ``σ : R(x̄) → ∃z̄ ψ`` and a shape ``R_{ī}`` there is at most
one homomorphism ``h`` from ``R(x̄)`` to the canonical atom ``R(ī)``; it
exists iff ``ī`` repeats an identifier wherever ``x̄`` repeats a variable.
The ``h``-specialization then maps every body variable to the *first*
variable with the same image, and the simplification of ``σ`` it induces
(Definition 3.5) is

    ``R_{ī}(unique(f(x̄))) → ∃z̄ simple(ψ(f(ȳ), z̄))``.

Everything that does not depend on ``ī`` is read once per rule off its
:class:`~repro.core.rules.CompiledRule`: the body's equality pattern as
``(position, first position)`` checks, the distinct body variables' first
positions, and per head atom the slot tuple (body variable or ``~n``
existential).

:meth:`TransferPlan.core` is the one transfer: a tuple test plus integer
indexing, giving each body variable's image, the head shapes and the
dependency-graph edges — no canonical atom, no substitution, no variable
name and no simplified predicate whose name would have to be parsed back into
a shape.  Algorithm 2's fixpoint reads only the core.  Names are added on top
of it where they are part of the answer: :meth:`TransferPlan.transfer` (the
simplified rule's terms), :meth:`TransferPlan.simplify` (the rule itself,
which dynamic and static simplification both build from it) and
:meth:`TransferPlan.syntax` (the fixpoint's dedup key for the rules whose
simplifications can coincide with another rule's; :func:`plans_by_body`
marks them ``shared``).  The per-pair interpreter this replaced is the oracle
in ``tests/simplification/reference.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.rules import CompiledRule, compile_rule
from ..core.tgds import TGD
from ..exceptions import NotLinearError
from .shapes import Shape

Identifiers = Tuple[int, ...]
#: A simplified head atom: predicate name, identifier tuple, unique variable names.
HeadShape = Tuple[str, Identifiers, Tuple[str, ...]]
#: What one (rule, shape) pair yields on integers: each body variable's image
#: (its identifier in the shape), the head shapes ``(name, identifiers)``, the
#: normal edges ``(body position, head number, head position)`` and the special
#: targets ``(head number, head position)``, 1-based inside the simplified
#: atoms.  Every normal edge's source has a special edge to every special target.
Core = Tuple[
    Sequence[int],
    List[Tuple[str, Identifiers]],
    List[Tuple[int, int, int]],
    List[Tuple[int, int]],
]
#: The core with names: the simplified body's variable names and the simplified
#: heads instead of the images and the head shapes.
Transfer = Tuple[
    Tuple[str, ...],
    Tuple[HeadShape, ...],
    List[Tuple[int, int, int]],
    List[Tuple[int, int]],
]


class TransferPlan:
    """One linear rule, compiled for :meth:`core`.

    ``index`` is the rule's position in the rule set it was compiled from and
    ``shared`` says whether another rule of that set has the same body
    predicate and the same sequence of head predicate names — the only way two
    rules can simplify to one rule (both set by :func:`plans_by_body`).
    """

    __slots__ = (
        "label", "name", "arity", "index", "shared",
        "_checks", "_names", "_firsts", "_existentials", "_heads",
    )

    def __init__(self, rule: CompiledRule, index: int = 0):
        if len(rule.body) != 1:
            raise NotLinearError(f"TGD {TGD.of(rule)!r} is not linear")
        ((predicate, body_slots),) = rule.body
        self.label = rule.label
        self.name = predicate.name
        self.arity = predicate.arity
        self.index = index
        self.shared = False
        # Body slots count up from 0 by first occurrence: a new slot is the
        # next number, a repeat is checked against its first position.
        firsts: List[int] = []
        checks: List[Tuple[int, int]] = []
        for position, slot in enumerate(body_slots):
            if slot == len(firsts):
                firsts.append(position)
            else:
                checks.append((position, firsts[slot]))
        self._checks = tuple(checks)
        self._names = rule.names
        # With no repeated variable the images are the identifiers themselves.
        self._firsts = tuple(firsts) if checks else None
        self._existentials = rule.existentials
        self._heads = tuple([(predicate.name, slots) for predicate, slots in rule.head])

    def core(self, identifiers: Sequence[int]) -> Optional[Core]:
        """Return what the body shape *identifiers* (of the body's arity) yields.

        ``None`` means no homomorphism: the body repeats a variable across
        positions the shape declares distinct.
        """
        for position, first in self._checks:
            if identifiers[position] != identifiers[first]:
                return None
        firsts = self._firsts
        images = identifiers if firsts is None else [identifiers[p] for p in firsts]
        heads: List[Tuple[str, Identifiers]] = []
        normal: List[Tuple[int, int, int]] = []
        special: List[Tuple[int, int]] = []
        for number, (name, slots) in enumerate(self._heads):
            # Each distinct value (an image, or ~n for an existential) gets the
            # next place in the simplified head atom.
            place_of: Dict[int, int] = {}
            head_identifiers = []
            for slot in slots:
                value = images[slot] if slot >= 0 else slot
                place = place_of.get(value)
                if place is None:
                    place = place_of[value] = len(place_of) + 1
                head_identifiers.append(place)
            for value, place in place_of.items():
                if value > 0:
                    normal.append((value, number, place))
                else:
                    special.append((number, place))
            heads.append((name, tuple(head_identifiers)))
        return images, heads, normal, special

    def named(
        self, images: Sequence[int], heads: Sequence[Tuple[str, Identifiers]]
    ) -> Tuple[Tuple[str, ...], Tuple[HeadShape, ...]]:
        """Name a core's images and head shapes: the simplified body's variable
        names and the simplified heads."""
        # Identifiers appear in increasing order, so the variables that bring
        # a new one are the representatives, in order.
        body_terms: List[str] = []
        for name, image in zip(self._names, images):
            if image > len(body_terms):
                body_terms.append(name)
        named: List[HeadShape] = []
        existentials = self._existentials
        for (name, head_identifiers), (_, slots) in zip(heads, self._heads):
            terms: List[str] = []
            for slot, place in zip(slots, head_identifiers):
                if place > len(terms):
                    terms.append(body_terms[images[slot] - 1] if slot >= 0 else existentials[~slot])
            named.append((name, head_identifiers, tuple(terms)))
        return tuple(body_terms), tuple(named)

    def syntax(self, identifiers: Identifiers, core: Core) -> Tuple[object, ...]:
        """The simplified rule of a transferred pair as a hashable key: body
        shape, body terms and named heads.  Two pairs give one simplified rule
        iff their keys are equal."""
        return ((self.name, identifiers), *self.named(core[0], core[1]))

    def transfer(self, identifiers: Sequence[int]) -> Optional[Transfer]:
        """The :meth:`core`, named: body terms, named heads and the edges."""
        core = self.core(identifiers)
        if core is None:
            return None
        images, heads, normal, special = core
        return (*self.named(images, heads), normal, special)

    def simplify(self, identifiers: Identifiers) -> Optional[CompiledRule]:
        """Return the simplification induced by the body shape, compiled."""
        transferred = self.transfer(identifiers)
        if transferred is None:
            return None
        body_terms, heads = transferred[:2]
        body = [(Shape(self.name, identifiers).as_predicate(), body_terms)]
        head = [(Shape(name, ids).as_predicate(), terms) for name, ids, terms in heads]
        return compile_rule(body, head, self.label)


def plans_by_body(rules: Iterable[CompiledRule]) -> Dict[Tuple[str, int], List[TransferPlan]]:
    """Compile *rules* into Section 5.4's index: body (name, arity) -> plans.

    A simplified rule's syntax starts with its body shape and the sequence of
    its head predicates, so two rules can only simplify to one rule when they
    agree on the body predicate and on the head predicate names.  The plans
    of such rules are marked ``shared``; every other plan's simplifications
    are told apart by its ``index`` and the body shape alone.
    """
    index: Dict[Tuple[str, int], List[TransferPlan]] = {}
    first_of: Dict[Tuple[object, ...], TransferPlan] = {}
    for number, rule in enumerate(rules):
        plan = TransferPlan(rule, number)
        group = (plan.name, plan.arity, *[name for name, _ in plan._heads])
        first = first_of.setdefault(group, plan)
        if first is not plan:
            first.shared = plan.shared = True
        index.setdefault((plan.name, plan.arity), []).append(plan)
    return index
