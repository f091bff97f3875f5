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
``(position, first position)`` checks, the distinct body variables with their
first positions, and per head atom the slot tuple (body variable or ``~n``
existential).  :meth:`TransferPlan.transfer` is then a tuple test plus
integer indexing over variable *names* — no canonical atom, no substitution,
no simplified predicate whose name would have to be parsed back into a
shape.

Dynamic and static simplification both drive it, and the simplified TGDs are
built from the same output (:meth:`TransferPlan.simplify`).  The per-pair
interpreter it replaced is the oracle in ``tests/simplification/reference.py``.
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
#: What one (rule, shape) pair yields: the simplified body's variable names,
#: the simplified heads, the normal edges ``(body position, head number, head
#: position)`` and the special targets ``(head number, head position)``, 1-based
#: inside the simplified atoms.  Every normal edge's source has a special edge
#: to every special target.
Transfer = Tuple[
    Tuple[str, ...],
    Tuple[HeadShape, ...],
    List[Tuple[int, int, int]],
    List[Tuple[int, int]],
]


class TransferPlan:
    """One linear rule, compiled for :meth:`transfer`."""

    __slots__ = ("label", "name", "arity", "_checks", "_names", "_firsts", "_existentials", "_heads")

    def __init__(self, rule: CompiledRule):
        if len(rule.body) != 1:
            raise NotLinearError(f"TGD {TGD.of(rule)!r} is not linear")
        ((predicate, body_slots),) = rule.body
        self.label = rule.label
        self.name = predicate.name
        self.arity = predicate.arity
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
        self._firsts = tuple(firsts)
        self._existentials = rule.existentials
        self._heads = tuple((predicate.name, slots) for predicate, slots in rule.head)

    def transfer(self, identifiers: Sequence[int]) -> Optional[Transfer]:
        """Return what the body shape *identifiers* (of the body's arity) yields.

        ``None`` means no homomorphism: the body repeats a variable across
        positions the shape declares distinct.
        """
        for position, first in self._checks:
            if identifiers[position] != identifiers[first]:
                return None
        # Each variable's image; identifiers appear in increasing order, so the
        # variables that bring a new one are the representatives, in order.
        images = [identifiers[position] for position in self._firsts]
        body_terms: List[str] = []
        for name, image in zip(self._names, images):
            if image > len(body_terms):
                body_terms.append(name)
        heads: List[HeadShape] = []
        normal: List[Tuple[int, int, int]] = []
        special: List[Tuple[int, int]] = []
        for number, (name, slots) in enumerate(self._heads):
            place_of: Dict[int, int] = {}
            head_identifiers = []
            for slot in slots:
                value = images[slot] if slot >= 0 else slot
                place = place_of.get(value)
                if place is None:
                    place = place_of[value] = len(place_of) + 1
                head_identifiers.append(place)
            terms = []
            for value, place in place_of.items():
                if value > 0:
                    terms.append(body_terms[value - 1])
                    normal.append((value, number, place))
                else:
                    terms.append(self._existentials[~value])
                    special.append((number, place))
            heads.append((name, tuple(head_identifiers), tuple(terms)))
        return tuple(body_terms), tuple(heads), normal, special

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
    """Compile *rules* into Section 5.4's index: body (name, arity) -> plans."""
    index: Dict[Tuple[str, int], List[TransferPlan]] = {}
    for rule in rules:
        plan = TransferPlan(rule)
        index.setdefault((plan.name, plan.arity), []).append(plan)
    return index
