"""Triggers and their results (Definition 3.1).

A trigger for a set of TGDs ``Σ`` on an instance ``I`` is a pair ``(σ, h)``
where ``σ ∈ Σ`` and ``h`` is a homomorphism from ``body(σ)`` to ``I``.  The
result of the trigger is obtained by mapping each frontier variable through
``h`` and each existentially quantified variable ``x`` to the labeled null
``⊥^x_{σ, h|fr(σ)}`` — a null whose identity is determined by the TGD, the
frontier restriction of ``h``, and the variable itself.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple

from ..core.atoms import Atom
from ..core.predicates import Predicate
from ..core.terms import NullFactory, NullKeyRenderer, Term, Variable
from ..core.tgds import TGD

#: ``h`` restricted to a plan's witness variables, sorted by variable name.
Witness = Tuple[Tuple[Variable, Term], ...]

#: A firing key ``(rule index, witness)``.  ``stable_key_hash``, the shuffle
#: routing table and the pushdown key tables are all defined on this shape.
FiringKey = Tuple[int, Witness]


def _name(variable: Variable) -> str:
    return variable.name


class FiringPlan:
    """Everything about firing one TGD that depends only on the rule.

    Compiled once per rule and run, so a match — a body homomorphism as a
    plain mapping — becomes its firing key and its ``result(σ, h)`` without
    re-deriving, per trigger, which variables are frontier, their order, or
    which head slots are existential.  The one implementation of both: every
    firing loop calls it.

    ``null_scope`` selects the witness: ``"frontier"`` is ``h|fr(σ)`` — the
    semi-oblivious firing key and the null naming ``⊥^x_{σ, h|fr(σ)}`` of
    Definition 3.1 (semi-oblivious and restricted chase); ``"homomorphism"``
    is the full body homomorphism, which the oblivious chase needs so that
    every distinct body witness fires and invents fresh nulls.
    """

    __slots__ = ("tgd", "index", "variables", "_existential", "_null_keys", "_head")

    def __init__(self, tgd: TGD, index: int, null_scope: str = "frontier") -> None:
        if null_scope not in ("frontier", "homomorphism"):
            raise ValueError("null_scope must be 'frontier' or 'homomorphism'")
        self.tgd = tgd
        self.index = index
        scope = tgd.frontier() if null_scope == "frontier" else tgd.body_variables()
        #: The witness variables, sorted by name.
        self.variables: Tuple[Variable, ...] = tuple(sorted(scope, key=_name))
        existential = sorted(tgd.existential_variables(), key=_name)
        self._existential = tuple(variable.name for variable in existential)
        self._null_keys = NullKeyRenderer(index, [v.name for v in self.variables])
        # Head atoms as (predicate, slots) templates; a slot indexes the
        # witness images followed by the invented nulls.
        values = list(self.variables) + existential
        self._head: Tuple[Tuple[Predicate, Tuple[int, ...]], ...] = tuple(
            (atom.predicate, tuple(values.index(term) for term in atom.terms))
            for atom in tgd.head
        )

    def key(self, mapping: Mapping[Term, Term]) -> FiringKey:
        """Return the key under which the match *mapping* fires at most once."""
        return (self.index, tuple([(variable, mapping[variable]) for variable in self.variables]))

    def values(self, key: FiringKey, null_factory: NullFactory) -> List[Term]:
        """The first half of :meth:`result`: the witness images, then the null
        invented for each existential — a fired trigger as one value row."""
        values: List[Term] = [image for _, image in key[1]]
        for name in self._existential:
            rendered = self._null_keys.render(values, name)
            values.append(null_factory.for_rendered_key(rendered))
        return values

    def row_key(self, values: Sequence[Term]) -> FiringKey:
        """The firing key of a value row (its leading witness images)."""
        return (self.index, tuple(zip(self.variables, values)))

    def atoms(self, values: Sequence[Term]) -> Tuple[Atom, ...]:
        """The second half of :meth:`result`: the head atoms over a value row."""
        return tuple(
            [Atom(predicate, [values[slot] for slot in slots]) for predicate, slots in self._head]
        )

    def result(self, key: FiringKey, null_factory: NullFactory) -> Tuple[Atom, ...]:
        """Compute ``result(σ, h)`` from the firing key of ``(σ, h)``: the head
        atoms with each existential ``x`` replaced by the null keyed
        ``(σ, witness, x)`` — a function of the key alone.  Equals
        ``atoms(values(key, null_factory))``, fused: the serial engines pay
        one call per trigger."""
        values: List[Term] = [image for _, image in key[1]]
        for name in self._existential:
            # render() pairs the witness variables with the leading values.
            rendered = self._null_keys.render(values, name)
            values.append(null_factory.for_rendered_key(rendered))
        return tuple(
            [Atom(predicate, [values[slot] for slot in slots]) for predicate, slots in self._head]
        )
