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
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from ..core.indexing import Row
from ..core.predicates import Predicate
from ..core.terms import NullFactory, NullKeyRenderer, Term, Variable
from ..core.tgds import TGD
from .matching import Pattern, variable_slots

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..storage.atom_store import AtomStore

#: The images of a plan's witness variables, in the order of
#: :attr:`FiringPlan.variables`.
Witness = Tuple[Term, ...]

#: A firing key ``(rule index, witness)``.  The witness variables are a
#: function of the rule, so the key carries only their images.
#: The engines' ``fired_keys`` memo, the coordinator merge's firing-key set
#: and the pushdown key tables are all defined on this shape.
FiringKey = Tuple[int, Witness]


def _name(variable: Variable) -> str:
    return variable.name


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

    Compiled once per rule and run, so a match — a body homomorphism as the
    slot tuple :mod:`repro.chase.matching` yields — becomes its firing key
    and its ``result(σ, h)`` without re-deriving, per trigger, which
    variables are frontier, their order, or which head slots are
    existential.  The one implementation of both: every firing loop calls
    :meth:`key`, then :meth:`values` and :meth:`head_rows`.

    ``null_scope`` selects the witness: ``"frontier"`` is ``h|fr(σ)`` — the
    semi-oblivious firing key and the null naming ``⊥^x_{σ, h|fr(σ)}`` of
    Definition 3.1 (semi-oblivious and restricted chase); ``"homomorphism"``
    is the full body homomorphism, which the oblivious chase needs so that
    every distinct body witness fires and invents fresh nulls.
    """

    __slots__ = (
        "tgd", "index", "variables", "width", "_witness", "_existential", "_null_keys",
        "_head", "_head_pattern",
    )

    def __init__(self, tgd: TGD, index: int, null_scope: str = "frontier") -> None:
        if null_scope not in ("frontier", "homomorphism"):
            raise ValueError("null_scope must be 'frontier' or 'homomorphism'")
        self.tgd = tgd
        self.index = index
        scope = tgd.frontier() if null_scope == "frontier" else tgd.body_variables()
        #: The witness variables, sorted by name.
        self.variables: Tuple[Variable, ...] = tuple(sorted(scope, key=_name))
        self.width = len(self.variables)
        body_slots = variable_slots(tgd.body)
        self._witness = _picker([body_slots[variable] for variable in self.variables])
        existential = sorted(tgd.existential_variables(), key=_name)
        self._existential = tuple(variable.name for variable in existential)
        self._null_keys = NullKeyRenderer(index, [v.name for v in self.variables])
        # Head atoms as (predicate, picker) templates over a value row: the
        # witness images followed by the invented nulls.
        layout: List[Term] = list(self.variables) + existential
        self._head: Tuple[Tuple[Predicate, Callable[[Sequence[Term]], Row]], ...] = tuple(
            (atom.predicate, _picker([layout.index(term) for term in atom.terms]))
            for atom in tgd.head
        )
        self._head_pattern: Optional[Pattern] = None

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
        if self._head_pattern is None:
            self._head_pattern = Pattern(self.tgd.head, self.variables)
        return self._head_pattern.exists(store, key[1])
