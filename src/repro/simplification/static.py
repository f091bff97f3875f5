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

from typing import Iterator

from ..core.tgds import TGD, TGDSet
from .plans import TransferPlan
from .shapes import identifier_tuples_of_arity


def simplifications_of_tgd(tgd: TGD) -> Iterator[TGD]:
    """Enumerate ``simple(σ)``: one simplification per specialization of the body tuple.

    The specializations of ``x̄`` are in bijection with the identifier tuples
    of its arity that repeat an identifier wherever ``x̄`` repeats a variable;
    the transfer plan rejects the others.
    """
    plan = TransferPlan(tgd)
    for identifiers in identifier_tuples_of_arity(plan.arity):
        simplified = plan.simplify(identifiers)
        if simplified is not None:
            yield simplified


def static_simplification(tgds: TGDSet) -> TGDSet:
    """Return ``simple(Σ)`` for a set of linear TGDs.

    Warning: the result is exponential in the maximum arity; use
    :func:`repro.simplification.dynamic.dynamic_simplification` for anything
    beyond small schemas, as the paper does.
    """
    tgds.require_linear()
    result = TGDSet()
    for tgd in tgds:
        result.update(simplifications_of_tgd(tgd))
    return result


def static_simplification_size(tgds: TGDSet) -> int:
    """Return ``|simple(Σ)|`` exactly (constructs the set; intended for ablations)."""
    return len(static_simplification(tgds))
