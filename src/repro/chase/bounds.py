"""Worst-case bounds on the size of the semi-oblivious chase.

The materialization-based termination algorithm (Section 1.4 of the paper)
relies on the existence of an integer ``k_{D,Σ}`` such that, for
(simple-)linear TGDs, the semi-oblivious chase of ``D`` with ``Σ`` terminates
iff the chase instance contains at most ``k_{D,Σ}`` atoms.  The worst-case
optimal constants are established in [Calautti, Gottlob, Pieris, PODS 2022];
this module implements a *conservative* upper bound (never smaller than the
optimal one) derived from the classical weak-acyclicity rank argument of
Fagin et al.  The bound has the same qualitative behaviour as the optimal
one — it explodes with the arity and the number of rules — which is exactly
why the paper found the materialization-based approach impractical.

Soundness contract
------------------
:func:`chase_size_bound` guarantees: *if* the semi-oblivious chase of ``D``
with the linear TGD set ``Σ`` is finite, then its number of atoms is at most
the returned value (or the value saturated at ``cap``, in which case the
returned :class:`SizeBound` is flagged as ``saturated`` and must be treated
as "too large to be useful" rather than as a proof threshold).  The
materialization-based checker in :mod:`repro.termination.materialization`
only concludes *non-termination* when the chase exceeds a **non-saturated**
bound, so it never reports a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.instances import Database
from ..core.tgds import TGDSet

#: Default saturation cap for bound arithmetic.  Anything above this is
#: far beyond what a materialization-based check could ever materialise.
DEFAULT_CAP = 10**12


def bell_number(n: int) -> int:
    """Return the ``n``-th Bell number (number of set partitions of ``[n]``).

    ``|simple(σ)|`` for a linear TGD whose body atom has ``n`` distinct
    variables is exactly ``B(n)`` (specializations are in bijection with set
    partitions), so Bell numbers govern the size of static simplification.
    """
    if n < 0:
        raise ValueError("bell_number is defined for n >= 0")
    if n == 0:
        return 1
    row = [1]
    for _ in range(n - 1):
        next_row = [row[-1]]
        for value in row:
            next_row.append(next_row[-1] + value)
        row = next_row
    return row[-1]


def static_simplification_size_bound(tgds: TGDSet) -> int:
    """Upper bound on ``|simple(Σ)|`` without constructing it.

    Each linear TGD with ``k`` distinct body variables contributes at most
    ``B(k)`` simplifications (Definition 3.5).
    """
    tgds.require_linear()
    return sum(bell_number(len(rule.names)) for rule in tgds.rules)


@dataclass(frozen=True)
class SizeBound:
    """A chase-size bound together with its saturation status.

    Attributes
    ----------
    value:
        The bound (capped at ``cap`` when ``saturated`` is true).
    saturated:
        ``True`` when the true bound exceeded the cap; the value is then a
        lower estimate of the real bound and must not be used as a
        non-termination threshold.
    cap:
        The saturation cap that was in effect.
    """

    value: int
    saturated: bool
    cap: int

    def usable_threshold(self) -> bool:
        """Return ``True`` when the bound can serve as a proof threshold."""
        return not self.saturated


def _saturating_mul(a: int, b: int, cap: int):
    product = a * b
    return (cap, True) if product > cap else (product, False)


def _saturating_pow(base: int, exponent: int, cap: int):
    result = 1
    for _ in range(exponent):
        result, saturated = _saturating_mul(result, base, cap)
        if saturated:
            return cap, True
    return result, False


def chase_size_bound(database: Database, tgds: TGDSet, cap: int = DEFAULT_CAP) -> SizeBound:
    """Return a conservative ``k_{D,Σ}`` for the materialization-based checker.

    The bound follows the weak-acyclicity rank argument: if the chase is
    finite then (by Theorem 3.6) ``simple(Σ)`` is ``simple(D)``-weakly-acyclic,
    every position has a finite *rank* (the maximum number of special edges
    on a path reaching it, at most the number of positions ``p``), and the
    number of distinct values appearing at positions of rank ``<= i`` obeys

        ``V_0 = |dom(D)|``
        ``V_i = V_{i-1} + |simple(Σ)| * m * V_{i-1}^a``

    where ``m`` is the maximum number of existential variables per TGD and
    ``a`` the maximum arity.  The total number of atoms is then at most
    ``|sch| * V_p^a``.  All arithmetic saturates at *cap*.
    """
    tgds.require_linear()
    if len(tgds) == 0:
        return SizeBound(value=max(len(database), 1), saturated=False, cap=cap)

    schema = tgds.schema().union(database.schema())
    n_positions = max(1, len(schema.positions()))
    max_arity = max(1, schema.max_arity())
    max_existentials = max((len(rule.existentials) for rule in tgds.rules), default=0)
    simple_size = static_simplification_size_bound(tgds)
    per_round_factor, saturated = _saturating_mul(simple_size, max(1, max_existentials), cap)

    values = max(1, len(database.domain()))
    for _ in range(n_positions):
        if saturated or values >= cap:
            saturated = True
            values = cap
            break
        powered, pow_saturated = _saturating_pow(values, max_arity, cap)
        created, mul_saturated = _saturating_mul(per_round_factor, powered, cap)
        values = min(cap, values + created)
        saturated = saturated or pow_saturated or mul_saturated or values >= cap

    atoms_per_predicate, pow_saturated = _saturating_pow(values, max_arity, cap)
    total, mul_saturated = _saturating_mul(len(schema), atoms_per_predicate, cap)
    saturated = saturated or pow_saturated or mul_saturated
    total = max(total, len(database))
    return SizeBound(value=min(total, cap), saturated=saturated, cap=cap)
