"""The one breadth-first round driver every chase execution runs under.

The paper defines the chase once, as the sequence ``chase_0, chase_1, ...``
where round ``i`` fires the triggers created by round ``i-1``'s atoms
(Section 3).  The serial engines, the coordinator-merge and shuffle
topologies of the parallel executor, and the ``sql-pushdown`` round tier are
only different ways to compute *one* such round, so each of them is a
**round step** plugged into :func:`run_rounds`, which alone owns

* the budget automaton (:class:`RoundBudget`): ``max_rounds`` is checked
  before a round runs, ``max_atoms`` after its atoms are in the store, and
  ``on_limit`` decides between a non-terminated result and
  :class:`~repro.exceptions.ChaseLimitExceeded`;
* trace emission (:func:`emit_round`): the ``rule_round`` events of a round,
  sorted by rule, then its ``round`` event — the fixpoint-confirming round
  included, so the events sum to the result totals exactly;
* canonical insertion (:func:`insert_sorted`): seeds and each round's new
  atoms reach the store in sorted order, in one bulk call where it has one;
* durability: one ``flush()`` per productive round on stores that have one;
* :class:`~repro.chase.result.ChaseResult` construction.

A step is a callable ``step(round_index, delta) -> RoundOutcome``.
*round_index* counts from 0; *delta* is the sorted sequence of atoms the
driver inserted after the previous round (empty for round 0, and for steps
that write their own rows).  The step keeps what is specific to it — its
trigger source and firing policy, its worker pool and key dedup, its staged
SQL — and never touches a budget or builds a result.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Collection,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Union,
)

from ..core.atoms import Atom, atom_sort_key
from ..exceptions import ChaseLimitExceeded
from ..obs.tracer import AnyTracer, as_tracer
from .result import ChaseLimits, ChaseResult

if TYPE_CHECKING:  # pragma: no cover - typing only; keeps storage out of module load
    from ..storage.atom_store import AtomStore


class RuleRow(NamedTuple):
    """One rule's share of a round, as its ``rule_round`` event reports it."""

    rule: int
    enumerated: int
    fired: int
    atoms_created: int
    nulls_invented: int
    seconds: float


class RoundOutcome(NamedTuple):
    """What a round step hands back to the driver."""

    #: Triggers (firing keys) the round enumerated; feeds the ``round`` event.
    considered: int
    #: Triggers the round fired.
    fired: int
    #: The round's new atoms, for the driver to sort and insert — or, for a
    #: step that executes in SQL, the count of rows it already wrote.
    new_atoms: Union[int, Collection[Atom]]
    #: Per-rule attribution; steps leave it empty on untraced runs.
    rule_rows: Sequence[RuleRow] = ()


RoundStep = Callable[[int, Sequence[Atom]], RoundOutcome]


class RoundBudget:
    """The budget automaton of a chase run, and the counters it guards."""

    __slots__ = ("limits", "on_limit", "variant", "rounds", "atoms_created", "triggers_fired")

    def __init__(self, limits: ChaseLimits, on_limit: str, variant: str) -> None:
        self.limits = limits
        self.on_limit = on_limit
        self.variant = variant
        self.rounds = 0
        self.atoms_created = 0
        self.triggers_fired = 0

    def next_round_allowed(self) -> bool:
        """Checked *before* a round runs: may round ``rounds + 1`` start?"""
        return not self.limits.round_budget_exceeded(self.rounds + 1)

    def round_done(self, created: int, store_size: int) -> bool:
        """Account a productive round; ``False`` when ``max_atoms`` is spent.

        Checked *after* the round's atoms are in the store: *store_size* is
        the store's atom count including them.
        """
        self.rounds += 1
        self.atoms_created += created
        return not self.limits.atom_budget_exceeded(store_size)

    def result(self, store: "AtomStore", stop_reason: str) -> ChaseResult:
        """Build the run's result, or raise when ``on_limit="raise"`` asks to."""
        if stop_reason != "fixpoint" and self.on_limit == "raise":
            raise ChaseLimitExceeded(
                f"{self.variant} chase exceeded its {stop_reason} budget",
                atoms_created=self.atoms_created,
                rounds=self.rounds,
            )
        return ChaseResult(
            terminated=stop_reason == "fixpoint",
            rounds=self.rounds,
            atoms_created=self.atoms_created,
            triggers_fired=self.triggers_fired,
            stop_reason=stop_reason,
            store=store,
        )


def emit_round(
    tracer: AnyTracer,
    round_number: int,
    delta_size: int,
    considered: int,
    fired: int,
    atoms_created: int,
    rule_rows: Iterable[RuleRow],
    seconds: float,
) -> None:
    """Emit a round's ``rule_round`` events (sorted by rule), then its ``round``."""
    for row in sorted(rule_rows):
        tracer.emit(
            "rule_round",
            round=round_number,
            rule=row.rule,
            enumerated=row.enumerated,
            fired=row.fired,
            atoms_created=row.atoms_created,
            nulls_invented=row.nulls_invented,
            dur=round(row.seconds, 9),
        )
    tracer.emit(
        "round",
        round=round_number,
        delta_size=delta_size,
        considered=considered,
        fired=fired,
        atoms_created=atoms_created,
        dur=round(seconds, 9),
    )


def insert_atoms(store: "AtomStore", atoms: Iterable[Atom]) -> None:
    """Add *atoms* to *store* in the given order — the one insertion site.

    One ``add_atoms`` call where the store has a bulk path (sqlite: an
    ``executemany`` per run of one predicate, so one per predicate in
    canonical order), atom by atom otherwise.  A worker's delta and seed
    chunks arrive sorted; everything else goes through :func:`insert_sorted`.
    """
    add_atoms = getattr(store, "add_atoms", None)
    if add_atoms is not None:
        add_atoms(atoms)
    else:
        for atom in atoms:
            store.add_atom(atom)


def insert_sorted(store: "AtomStore", atoms: Iterable[Atom]) -> List[Atom]:
    """Insert *atoms* in canonical order; return them in that order.

    Set iteration is hash-salted and stores assign monotone seq numbers at
    insertion, so unsorted insertion would make seq watermarks (any
    seq-ordered read, a persisted file's bytes) vary run to run.
    """
    ordered = sorted(atoms, key=atom_sort_key)
    insert_atoms(store, ordered)
    return ordered


def run_rounds(
    step: RoundStep,
    store: "AtomStore",
    limits: ChaseLimits,
    on_limit: str,
    variant: str,
    tracer: Optional[AnyTracer] = None,
) -> ChaseResult:
    """Drive *step* round by round over *store* until fixpoint or budget.

    Tracing never changes the result: nothing read from the tracer's clock
    flows into any chase decision.
    """
    tracer = as_tracer(tracer)
    traced = tracer.enabled
    budget = RoundBudget(limits, on_limit, variant)
    flush = getattr(store, "flush", None)
    delta: Sequence[Atom] = ()
    pending: Collection[Atom] = ()
    created = 0
    started = 0.0
    delta_size = 0
    while budget.next_round_allowed():
        if traced:
            started = tracer.now()
            delta_size = created if budget.rounds else store.atom_count()
        considered, fired, new_atoms, rule_rows = step(budget.rounds, delta)
        budget.triggers_fired += fired
        if isinstance(new_atoms, int):
            # The step already wrote its rows (in SQL); nothing to insert.
            created, pending = new_atoms, ()
        else:
            created, pending = len(new_atoms), new_atoms
        if traced:
            emit_round(
                tracer, budget.rounds + 1, delta_size, considered, fired, created,
                rule_rows, tracer.now() - started,
            )
        if not created:
            return budget.result(store, "fixpoint")
        delta = insert_sorted(store, pending) if pending else ()
        if flush is not None:
            # Round-granular durability on persistent stores: a hard crash
            # loses at most the current round, keeping the file a resumable
            # prefix of the chase.
            flush()
        if not budget.round_done(created, store.atom_count()):
            return budget.result(store, "max_atoms")
    return budget.result(store, "max_rounds")
