"""Shape-transfer plans: Algorithm 2's ``Applicable`` step, compiled per rule.

For a linear TGD ``σ : R(x̄) → ∃z̄ ψ`` and a shape ``R_{ī}`` there is at most
one homomorphism ``h`` from ``R(x̄)`` to the canonical atom ``R(ī)``; it
exists iff ``ī`` repeats an identifier wherever ``x̄`` repeats a variable.
The ``h``-specialization then maps every body variable to the *first*
variable with the same image, and the simplification of ``σ`` it induces
(Definition 3.5) is

    ``R_{ī}(unique(f(x̄))) → ∃z̄ simple(ψ(f(ȳ), z̄))``.

Everything that does not depend on ``ī`` is worked out once per rule: the
body's equality pattern as ``(position, first position)`` checks, the distinct
body variables with their first positions, and per head atom a slot tuple
(body variable or existential).  :meth:`TransferPlan.transfer` is then a
tuple test plus integer indexing — no canonical atom, no substitution, no
simplified predicate whose name would have to be parsed back into a shape.

Dynamic and static simplification both drive it, and the simplified TGDs are
built from the same output (:meth:`TransferPlan.simplify`).  The per-pair
interpreter it replaced is the oracle in ``tests/simplification/reference.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.atoms import Atom
from ..core.terms import Term
from ..core.tgds import TGD
from .shapes import Shape

Identifiers = Tuple[int, ...]
#: A simplified head atom: predicate name, identifier tuple, unique terms.
HeadShape = Tuple[str, Identifiers, Tuple[Term, ...]]
#: What one (rule, shape) pair yields: the simplified body's terms, the
#: simplified heads, the normal edges ``(body position, head number, head
#: position)`` and the special targets ``(head number, head position)``, 1-based
#: inside the simplified atoms.  Every normal edge's source has a special edge
#: to every special target.
Transfer = Tuple[
    Tuple[Term, ...],
    Tuple[HeadShape, ...],
    List[Tuple[int, int, int]],
    List[Tuple[int, int]],
]


class TransferPlan:
    """One linear TGD, compiled for :meth:`transfer`."""

    __slots__ = ("label", "name", "arity", "_checks", "_variables", "_firsts", "_existentials", "_heads")

    def __init__(self, tgd: TGD):
        body = tgd.body_atom()
        self.label = tgd.label
        self.name = body.predicate.name
        self.arity = body.arity
        number_of: Dict[Term, int] = {}
        firsts: List[int] = []
        checks: List[Tuple[int, int]] = []
        for position, term in enumerate(body.terms):
            number = number_of.setdefault(term, len(firsts))
            if number == len(firsts):
                firsts.append(position)
            else:
                checks.append((position, firsts[number]))
        existentials: Dict[Term, int] = {}
        heads: List[Tuple[str, Tuple[int, ...]]] = []
        for atom in tgd.head:
            # A slot is a body variable's number, or ~n for the n-th existential.
            slots = tuple(
                number_of[term] if term in number_of
                else ~existentials.setdefault(term, len(existentials))
                for term in atom.terms
            )
            heads.append((atom.predicate.name, slots))
        self._checks = tuple(checks)
        self._variables = tuple(number_of)
        self._firsts = tuple(firsts)
        self._existentials = tuple(existentials)
        self._heads = tuple(heads)

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
        body_terms: List[Term] = []
        for variable, image in zip(self._variables, images):
            if image > len(body_terms):
                body_terms.append(variable)
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

    def simplify(self, identifiers: Identifiers) -> Optional[TGD]:
        """Return the simplification induced by the body shape, as a TGD."""
        transferred = self.transfer(identifiers)
        if transferred is None:
            return None
        body_terms, heads = transferred[:2]
        body = Atom(Shape(self.name, identifiers).as_predicate(), body_terms)
        head = [Atom(Shape(name, ids).as_predicate(), terms) for name, ids, terms in heads]
        return TGD((body,), head, label=self.label)


def plans_by_body(tgds: Sequence[TGD]) -> Dict[Tuple[str, int], List[TransferPlan]]:
    """Compile *tgds* into Section 5.4's index: body (name, arity) -> plans."""
    index: Dict[Tuple[str, int], List[TransferPlan]] = {}
    for tgd in tgds:
        plan = TransferPlan(tgd)
        index.setdefault((plan.name, plan.arity), []).append(plan)
    return index
