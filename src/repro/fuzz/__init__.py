"""Differential fuzzing harness for the chase engines.

See :mod:`repro.fuzz.harness` for the loop, :mod:`repro.fuzz.oracles` for
the oracle catalogue, :mod:`repro.fuzz.reference` for the naive reference
chase the oracles compare against, and ``docs/fuzzing.md`` for the
operator's guide.
"""

from .corpus import (
    CASE_SUFFIX,
    FuzzCase,
    case_from_program,
    load_case,
    load_corpus,
    parse_case,
    render_case,
    save_case,
)
from .coverage_map import trace_probe
from .harness import (
    CaseOutcome,
    FuzzReport,
    fuzz,
    replay_case,
    replay_corpus,
)
from .mutate import OPERATOR_NAMES, MutationFailed, mutate, mutate_many
from .oracles import (
    DEFAULT_LIMITS,
    POOL_PROFILES,
    SERIAL_COMBOS,
    Combo,
    Divergence,
    PoolCombo,
    check_budget_accounting,
    check_engine_identity,
    check_round_trip,
    check_termination_oracle,
    result_fingerprint,
    run_all_oracles,
)
from .reference import reference_chase
from .shrink import program_size, shrink

__all__ = [
    "CASE_SUFFIX",
    "CaseOutcome",
    "Combo",
    "DEFAULT_LIMITS",
    "Divergence",
    "FuzzCase",
    "FuzzReport",
    "MutationFailed",
    "OPERATOR_NAMES",
    "POOL_PROFILES",
    "PoolCombo",
    "SERIAL_COMBOS",
    "case_from_program",
    "check_budget_accounting",
    "check_engine_identity",
    "check_round_trip",
    "check_termination_oracle",
    "fuzz",
    "load_case",
    "load_corpus",
    "mutate",
    "mutate_many",
    "parse_case",
    "program_size",
    "reference_chase",
    "render_case",
    "replay_case",
    "replay_corpus",
    "result_fingerprint",
    "run_all_oracles",
    "save_case",
    "shrink",
    "trace_probe",
]
