"""Static simplification of linear TGDs (Definition 3.5).

The simplification of a linear TGD ``σ : R(x̄) → ∃z̄ ψ(ȳ, z̄)`` induced by a
specialization ``f`` of ``x̄`` is the simple-linear TGD

    ``simple(R(f(x̄))) → ∃z̄ simple(ψ(f(ȳ), z̄))``.

``simple(Σ)`` collects the simplifications of every TGD of ``Σ`` under every
specialization of its body variables.  Its size is exponential in the
maximum arity (Bell numbers), which is exactly why the paper introduces
*dynamic* simplification; the static version is still implemented in full
because (a) it defines the semantics the dynamic version must preserve and
(b) the ablation experiments compare the two.
"""

from __future__ import annotations

from ..core.tgds import TGDSet
from .plans import TransferPlan
from .shapes import identifier_tuples_of_arity


def static_simplification(tgds: TGDSet) -> TGDSet:
    """Return ``simple(Σ)`` for a set of linear TGDs.

    Warning: the result is exponential in the maximum arity; use
    :func:`repro.simplification.dynamic.dynamic_simplification` for anything
    beyond small schemas, as the paper does.

    The specializations of a body tuple are in bijection with the identifier
    tuples of its arity that repeat an identifier wherever it repeats a
    variable; the transfer plan rejects the others.
    """
    tgds.require_linear()
    result = TGDSet()
    for rule in tgds.rules:
        plan = TransferPlan(rule)
        for identifiers in identifier_tuples_of_arity(plan.arity):
            simplified = plan.simplify(identifiers)
            if simplified is not None:
                result.add_rule(simplified)
    return result
