"""Differential oracles: everything the fuzzer checks about one program.

Four oracle families, mirroring the claims the test suite makes piecewise:

* **round-trip** — ``parse(serialize(program)) == program`` for both the
  rule set and the database, through the real :mod:`repro.core.parser`;
* **byte-identity** — every (strategy × backend × pool) combination produces
  the same :func:`result_fingerprint` as the naive in-memory reference
  (:func:`repro.fuzz.reference.reference_chase`), for every chase variant;
* **budget accounting** — each result's internal bookkeeping is coherent:
  ``size == seed atoms + atoms_created``, ``terminated ⇔ fixpoint``, the
  stop reason is one of the documented three and consistent with the limits;
* **termination** — on linear rule sets, ``IsChaseFinite[L]`` agrees with
  actually materializing the chase whenever the materialization is
  conclusive.

Oracles return :class:`Divergence` records instead of raising, so one
program can surface several independent disagreements in a single run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

from ..chase.engine import chase
from ..chase.parallel import parallel_chase
from ..chase.result import ChaseLimits, ChaseResult
from ..core.instances import Database
from ..core.parser import parse_database, parse_rules
from ..core.predicates import Schema
from ..core.serializer import serialize_database, serialize_rules
from ..core.tgds import TGDSet
from ..exceptions import ReproError
from ..termination.linear import is_chase_finite_l
from ..termination.materialization import is_chase_finite_materialization
from .reference import reference_chase

#: Same default budget as the property-based conformance suite: small enough
#: that non-terminating programs produce a comparable deterministic prefix.
DEFAULT_LIMITS = ChaseLimits(max_atoms=300, max_rounds=10)

VARIANTS = ("oblivious", "semi-oblivious", "restricted")

STOP_REASONS = ("fixpoint", "max_atoms", "max_rounds")


@dataclass(frozen=True)
class Combo:
    """One serial execution configuration."""

    strategy: str
    backend: str

    @property
    def label(self) -> str:
        return f"{self.strategy}/{self.backend}"


@dataclass(frozen=True)
class PoolCombo:
    """One parallel-executor configuration (always indexed strategy)."""

    workers: int
    executor: str
    backend: str = "instance"
    exchange: str = "coordinator"

    @property
    def label(self) -> str:
        label = f"parallel[{self.backend}] workers={self.workers} executor={self.executor}"
        if self.exchange != "coordinator":
            label += f" exchange={self.exchange}"
        return label


#: The product's serial combos; each is compared against the reference run.
SERIAL_COMBOS: Tuple[Combo, ...] = (
    Combo("indexed", "instance"),
    Combo("indexed", "sqlite"),
    Combo("sql-pushdown", "sqlite"),
)

#: ``quick`` keeps process pools out of the hot loop (they dominate wall
#: time); ``full`` is the everything profile used for corpus replay.
POOL_PROFILES = {
    "quick": (
        PoolCombo(2, "serial"),
        PoolCombo(3, "serial"),
        PoolCombo(2, "serial", backend="sqlite"),
        PoolCombo(3, "serial", exchange="shuffle"),
    ),
    "full": (
        PoolCombo(2, "serial"),
        PoolCombo(3, "serial"),
        PoolCombo(2, "serial", backend="sqlite"),
        PoolCombo(2, "process"),
        PoolCombo(2, "process", backend="sqlite"),
        PoolCombo(3, "serial", exchange="shuffle"),
        PoolCombo(2, "process", backend="sqlite", exchange="shuffle"),
    ),
}


@dataclass(frozen=True)
class Divergence:
    """One oracle disagreement, attributable to a specific configuration."""

    oracle: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.subject}: {self.detail}"


def result_fingerprint(result: ChaseResult) -> tuple:
    """The byte-identity surface (kept in sync with ``tests/helpers.py``)."""
    return (
        result.terminated,
        result.stop_reason,
        result.rounds,
        result.triggers_fired,
        result.atoms_created,
        tuple(sorted(str(atom) for atom in result.instance)),
    )


def _diff_fingerprints(expected: tuple, actual: tuple) -> str:
    fields = ("terminated", "stop_reason", "rounds", "triggers_fired", "atoms_created")
    for name, left, right in zip(fields, expected, actual):
        if left != right:
            return f"{name}: expected {left!r}, got {right!r}"
    left_atoms, right_atoms = set(expected[-1]), set(actual[-1])
    missing = sorted(left_atoms - right_atoms)[:3]
    extra = sorted(right_atoms - left_atoms)[:3]
    return f"instance differs; missing={missing} extra={extra}"


# --------------------------------------------------------------------- #
# Oracle: round-trip


def check_round_trip(database: Database, tgds: TGDSet) -> List[Divergence]:
    """Serialize the program and parse it back; any drift is a bug."""
    divergences: List[Divergence] = []
    schema = Schema()
    try:
        reparsed_rules = parse_rules(serialize_rules(tgds), schema=schema)
    except ReproError as error:
        divergences.append(
            Divergence("round-trip", "rules", f"serialized rules failed to parse: {error}")
        )
    else:
        if set(reparsed_rules) != set(tgds):
            divergences.append(
                Divergence("round-trip", "rules", "parse(serialize(rules)) != rules")
            )
    try:
        reparsed_db = parse_database(serialize_database(database), schema=schema)
    except ReproError as error:
        divergences.append(
            Divergence("round-trip", "facts", f"serialized facts failed to parse: {error}")
        )
    else:
        if set(reparsed_db) != set(database):
            divergences.append(
                Divergence("round-trip", "facts", "parse(serialize(facts)) != facts")
            )
    return divergences


# --------------------------------------------------------------------- #
# Oracle: budget accounting


def check_budget_accounting(
    result: ChaseResult,
    seed_atoms: int,
    limits: ChaseLimits,
    subject: str,
) -> List[Divergence]:
    """Verify one result's internal bookkeeping against itself."""
    divergences: List[Divergence] = []

    def bad(detail: str) -> None:
        divergences.append(Divergence("budget", subject, detail))

    size = result.size()
    if size != len(result.instance):
        bad(f"store count {size} != materialized instance size {len(result.instance)}")
    if size != seed_atoms + result.atoms_created:
        bad(
            f"size {size} != seed atoms {seed_atoms} + atoms_created "
            f"{result.atoms_created}"
        )
    if result.stop_reason not in STOP_REASONS:
        bad(f"undocumented stop_reason {result.stop_reason!r}")
    if result.terminated != (result.stop_reason == "fixpoint"):
        bad(
            f"terminated={result.terminated} inconsistent with "
            f"stop_reason={result.stop_reason!r}"
        )
    if result.stop_reason == "max_atoms" and limits.max_atoms is None:
        bad("stopped on max_atoms with no atom budget set")
    if result.stop_reason == "max_rounds" and limits.max_rounds is None:
        bad("stopped on max_rounds with no round budget set")
    if limits.max_rounds is not None and result.rounds > limits.max_rounds + 1:
        bad(f"rounds {result.rounds} exceeds budget {limits.max_rounds} by more than one")
    if result.atoms_created < 0 or result.triggers_fired < 0 or result.rounds < 0:
        bad("negative counter")
    return divergences


# --------------------------------------------------------------------- #
# Oracle: cross-engine byte identity


def check_engine_identity(
    database: Database,
    tgds: TGDSet,
    limits: ChaseLimits = DEFAULT_LIMITS,
    pools: str = "quick",
    variants: Sequence[str] = VARIANTS,
) -> List[Divergence]:
    """Run every configured combo and compare it against the reference chase."""
    divergences: List[Divergence] = []
    seed_atoms = len(database)
    for variant in variants:
        runs: List[Tuple[str, Callable[[], ChaseResult]]] = [
            ("reference/instance", partial(reference_chase, database, tgds, variant, limits))
        ]
        runs += [
            (
                combo.label,
                partial(
                    chase, database, tgds, variant=variant, strategy=combo.strategy,
                    backend=combo.backend, limits=limits,
                ),
            )
            for combo in SERIAL_COMBOS
        ]
        runs += [
            (
                pool.label,
                partial(
                    parallel_chase, database, tgds, variant=variant, workers=pool.workers,
                    executor=pool.executor, backend=pool.backend, exchange=pool.exchange,
                    limits=limits,
                ),
            )
            for pool in POOL_PROFILES[pools]
        ]
        reference: Optional[tuple] = None
        for label, run in runs:
            subject = f"{variant} {label}"
            try:
                result = run()
            except ReproError as error:
                divergences.append(
                    Divergence("identity", subject, f"raised {type(error).__name__}: {error}")
                )
                continue
            divergences.extend(check_budget_accounting(result, seed_atoms, limits, subject))
            fingerprint = result_fingerprint(result)
            if reference is None:
                reference = fingerprint
            elif fingerprint != reference:
                divergences.append(
                    Divergence(
                        "identity", subject, _diff_fingerprints(reference, fingerprint)
                    )
                )
    return divergences


# --------------------------------------------------------------------- #
# Oracle: termination checker vs. materialization


def check_termination_oracle(
    database: Database,
    tgds: TGDSet,
    max_atoms: int = 2_000,
) -> List[Divergence]:
    """On linear inputs, ``IsChaseFinite[L]`` must agree with the ground
    truth whenever materializing the chase is conclusive."""
    if not tgds.is_linear():
        return []
    oracle = is_chase_finite_materialization(database, tgds, max_atoms=max_atoms)
    if not oracle.conclusive:
        return []
    verdict = is_chase_finite_l(database, tgds).finite
    if verdict != oracle.finite:
        return [
            Divergence(
                "termination",
                "IsChaseFinite[L]",
                f"checker said finite={verdict} but materializing "
                f"{oracle.atoms_materialized} atoms proved finite={oracle.finite}",
            )
        ]
    return []


# --------------------------------------------------------------------- #
# The full battery


def run_all_oracles(
    database: Database,
    tgds: TGDSet,
    limits: ChaseLimits = DEFAULT_LIMITS,
    pools: str = "quick",
    variants: Sequence[str] = VARIANTS,
) -> List[Divergence]:
    """Round-trip + cross-engine identity + budget + termination oracles."""
    divergences = check_round_trip(database, tgds)
    divergences.extend(
        check_engine_identity(database, tgds, limits=limits, pools=pools, variants=variants)
    )
    divergences.extend(check_termination_oracle(database, tgds))
    return divergences
