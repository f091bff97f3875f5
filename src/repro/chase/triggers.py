"""Triggers and their results (Definition 3.1).

A trigger for a set of TGDs ``Σ`` on an instance ``I`` is a pair ``(σ, h)``
where ``σ ∈ Σ`` and ``h`` is a homomorphism from ``body(σ)`` to ``I``.  The
result of the trigger is obtained by mapping each frontier variable through
``h`` and each existentially quantified variable ``x`` to the labeled null
``⊥^x_{σ, h|fr(σ)}`` — a null whose identity is determined by the TGD, the
frontier restriction of ``h``, and the variable itself.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

from ..core.indexing import Row
from ..core.predicates import Predicate
from ..core.rules import CompiledRule
from ..core.terms import NullFactory, NullKeyRenderer, Term
from .matching import Pattern

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..storage.atom_store import AtomStore

#: The images of a plan's witness variables, in the order of
#: :attr:`FiringPlan.witness`.
Witness = Tuple[Term, ...]

#: A firing key ``(rule index, witness)``.  The witness variables are a
#: function of the rule, so the key carries only their images.
#: The engines' ``fired_keys`` memo, the coordinator merge's firing-key set
#: and the pushdown key tables are all defined on this shape.
FiringKey = Tuple[int, Witness]


def _picker(slots: Sequence[int]) -> Callable[[Sequence[Term]], Row]:
    """The function picking ``tuple(values[slot] for slot in slots)``, in C."""
    if len(slots) > 1:
        return itemgetter(*slots)
    if slots:
        (slot,) = slots
        return lambda values: (values[slot],)
    return lambda values: ()


class FiringPlan:
    """Everything about firing one TGD that depends only on the rule.

    Compiled once from the rule's :class:`~repro.core.rules.CompiledRule`
    (:attr:`rule`; no :class:`~repro.core.tgds.TGD` view is decoded), so a
    match — a body homomorphism as the slot tuple :mod:`repro.chase.matching`
    yields — becomes its firing key and its ``result(σ, h)`` without
    re-deriving, per trigger, which variables are frontier, their order, or
    which head slots are existential.  The one implementation of both: every
    firing loop calls :meth:`key`, then :meth:`values` and :meth:`head_rows`.

    ``null_scope`` selects the witness: ``"frontier"`` is ``h|fr(σ)`` — the
    semi-oblivious firing key and the null naming ``⊥^x_{σ, h|fr(σ)}`` of
    Definition 3.1 (semi-oblivious and restricted chase); ``"homomorphism"``
    is the full body homomorphism, which the oblivious chase needs so that
    every distinct body witness fires and invents fresh nulls.
    """

    __slots__ = (
        "rule", "index", "witness", "witness_names", "width", "_witness", "_existential",
        "_null_keys", "_head", "_head_pattern",
    )

    def __init__(self, rule: CompiledRule, index: int, null_scope: str = "frontier") -> None:
        if null_scope not in ("frontier", "homomorphism"):
            raise ValueError("null_scope must be 'frontier' or 'homomorphism'")
        self.rule = rule
        self.index = index
        #: The body slots of the witness variables, sorted by name.
        self.witness = rule.witness(null_scope)
        self.witness_names = tuple(rule.names[slot] for slot in self.witness)
        self.width = len(self.witness)
        self._witness = _picker(self.witness)
        existential = sorted(range(len(rule.existentials)), key=lambda n: rule.existentials[n])
        self._existential = tuple(rule.existentials[number] for number in existential)
        self._null_keys = NullKeyRenderer(index, self.witness_names)
        # A value row holds the witness images, then the invented nulls:
        # the place of each head slot in it.
        place: Dict[int, int] = {slot: at for at, slot in enumerate(self.witness)}
        for at, number in enumerate(existential, start=self.width):
            place[~number] = at
        self._head_pattern = Pattern(
            [(predicate, tuple(place[slot] for slot in slots)) for predicate, slots in rule.head],
            len(place),
        )
        self._head: Tuple[Tuple[Predicate, Callable[[Sequence[Term]], Row]], ...] = tuple(
            (predicate, _picker(places)) for predicate, places in self._head_pattern.atoms
        )

    def key(self, values: Sequence[Term]) -> FiringKey:
        """Return the key under which the match *values* fires at most once."""
        return (self.index, self._witness(values))

    def values(self, key: FiringKey, null_factory: NullFactory) -> List[Term]:
        """A fired trigger as one value row: the witness images, then the
        null invented for each existential ``x`` — the one keyed
        ``(σ, witness, x)``, a function of the key alone."""
        values: List[Term] = list(key[1])
        for name in self._existential:
            # render() pairs the witness variables with the leading values.
            rendered = self._null_keys.render(values, name)
            values.append(null_factory.for_rendered_key(rendered))
        return values

    def row_key(self, values: Sequence[Term]) -> FiringKey:
        """The firing key of a value row (its leading witness images)."""
        return (self.index, tuple(values[: self.width]))

    def head_rows(self, values: Sequence[Term]) -> List[Tuple[Predicate, Row]]:
        """``result(σ, h)`` over a value row: each head atom as ``(predicate, row)``."""
        return [(predicate, pick(values)) for predicate, pick in self._head]

    def head_holds(self, key: FiringKey, store: "AtomStore") -> bool:
        """Whether some extension of the key's witness maps the head into
        *store* — the restricted chase's head-satisfaction check."""
        return self._head_pattern.exists(store, enumerate(key[1]))
