"""Experiment configuration: scales, presets, and shared sampling helpers.

The paper's synthetic grid runs against rule sets of up to one million TGDs
and databases of up to 500 million tuples on a dedicated server.  Every
experiment runner in this package therefore takes an
:class:`ExperimentConfig` whose *scales* shrink the nominal sizes; the
qualitative shapes of the results (what grows linearly, what stays flat) are
preserved, and those shapes are what the figures compare against the
paper.

Four presets are provided:

* ``smoke``   — seconds; used by the test suite;
* ``medium``  — tens of seconds; the smallest scale at which the figures'
  trends are visible;
* ``default`` — a couple of minutes; what ``repro-experiments run`` uses;
* ``paper``   — the nominal sizes of the paper (hours; memory hungry).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..exceptions import ExperimentConfigError
from ..generators.profiles import (
    CombinedProfile,
    PredicateProfile,
    TGDProfile,
    database_sizes,
    paper_predicate_profiles,
    paper_tgd_profiles,
)
from ..scenarios import scenario_names

#: The Tables 1/2 scenarios run by default: every Table 1 scenario that stays small.
DEFAULT_SCENARIOS = (
    "Deep-100", "Deep-200", "Deep-300", "LUBM-1", "LUBM-10", "LUBM-100", "STB-128", "ONT-256",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment runner.

    Attributes
    ----------
    tgd_scale:
        Multiplier applied to the paper's TGD profiles
        ([1, 333K], [333K, 666K], [666K, 1M]).
    predicate_scale:
        Multiplier applied to the paper's predicate profiles
        ([5,200], [200,400], [400,600]).  The paper's values are already
        laptop-sized, so this is usually 1.0.
    db_scale:
        Multiplier applied to the paper's tuples-per-predicate ladder
        (1K, 50K, 100K, 250K, 500K).
    db_predicates:
        Number of predicates in the generated ``D*`` database (1000 in the
        paper).
    db_domain_size:
        Number of distinct constants in ``D*`` (500K in the paper).
    sets_per_profile_sl / sets_per_profile_l:
        How many rule sets to draw per combined profile (100 and 5 in the
        paper).
    seed:
        Master seed; every runner derives per-task seeds from it.
    scenarios:
        The literature scenarios Tables 1/2 run, one sweep task each.
    scenario_scale:
        The scale passed to every scenario builder (``None``: each
        family's laptop-sized default, see
        :func:`repro.scenarios.build_scenario`).
    """

    tgd_scale: float = 0.002
    predicate_scale: float = 0.2
    db_scale: float = 0.002
    db_predicates: int = 60
    db_domain_size: int = 2_000
    sets_per_profile_sl: int = 3
    sets_per_profile_l: int = 2
    seed: int = 20230322
    scenarios: Tuple[str, ...] = DEFAULT_SCENARIOS
    scenario_scale: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        unknown = [name for name in self.scenarios if name not in scenario_names()]
        if unknown:
            raise ExperimentConfigError(
                f"unknown scenario {unknown[0]!r}; known: {', '.join(scenario_names())}"
            )
        if self.scenario_scale is not None and self.scenario_scale <= 0:
            raise ExperimentConfigError("scenario_scale must be positive")
        if self.tgd_scale <= 0 or self.db_scale <= 0 or self.predicate_scale <= 0:
            raise ExperimentConfigError("scales must be positive")
        if self.db_predicates < 1 or self.db_domain_size < 5:
            raise ExperimentConfigError("db_predicates and db_domain_size are too small")
        if self.sets_per_profile_sl < 1 or self.sets_per_profile_l < 1:
            raise ExperimentConfigError("sets per profile must be >= 1")

    # ------------------------------------------------------------------ #
    # Derived workload descriptions

    def predicate_profiles(self) -> List[PredicateProfile]:
        """The (possibly scaled) predicate profiles."""
        profiles = paper_predicate_profiles()
        if self.predicate_scale == 1.0:
            return profiles
        return [
            PredicateProfile(
                max(1, round(p.low * self.predicate_scale)),
                max(1, round(p.high * self.predicate_scale)),
            )
            for p in profiles
        ]

    def tgd_profiles(self) -> List[TGDProfile]:
        """The scaled TGD profiles."""
        return paper_tgd_profiles(self.tgd_scale)

    def combined_profiles(self) -> List[CombinedProfile]:
        """The nine scaled combined profiles."""
        return [
            CombinedProfile(predicate_profile, tgd_profile)
            for predicate_profile in self.predicate_profiles()
            for tgd_profile in self.tgd_profiles()
        ]

    def database_sizes(self) -> List[int]:
        """The scaled tuples-per-predicate ladder of the ``D*`` views."""
        return database_sizes(self.db_scale)

    def schema_size(self) -> int:
        """Size of the global schema rule sets draw from (1000 in the paper)."""
        highest = max(profile.high for profile in self.predicate_profiles())
        return max(self.db_predicates, highest, 10)

    def rng(self, *salt) -> random.Random:
        """Return a private RNG derived from the master seed and *salt*.

        The derivation is a string key, not ``hash()`` of a tuple: string
        hashing is randomized per interpreter (PYTHONHASHSEED), which would
        make the generated workload grid differ between processes — breaking
        both the parallel sweep runner (workers regenerate their own
        workloads) and checkpoint resume across interpreter restarts.
        ``random.Random`` seeds strings deterministically on every platform.
        """
        key = ":".join(str(part) for part in (self.seed, *salt))
        return random.Random(key)

    def scaled(self, **overrides) -> "ExperimentConfig":
        """Return a copy with some fields replaced."""
        return replace(self, **overrides)


#: Preset used by unit tests and quick smoke runs (a few seconds end to end).
SMOKE = ExperimentConfig(
    tgd_scale=0.0003,
    predicate_scale=0.05,
    db_scale=0.0002,
    db_predicates=12,
    db_domain_size=200,
    sets_per_profile_sl=1,
    sets_per_profile_l=1,
)

#: Between smoke and default: big enough that the figures' trends show up
#: in the timings, small enough to run in tens of seconds.
MEDIUM = ExperimentConfig(
    tgd_scale=0.001,
    predicate_scale=0.1,
    db_scale=0.001,
    db_predicates=30,
    db_domain_size=1_000,
    sets_per_profile_sl=2,
    sets_per_profile_l=1,
)

#: Preset ``repro-experiments run`` uses by default (a few minutes end to end).
DEFAULT = ExperimentConfig()

#: The paper's nominal sizes (hours of runtime, tens of GB of data).
PAPER = ExperimentConfig(
    tgd_scale=1.0,
    predicate_scale=1.0,
    db_scale=1.0,
    db_predicates=1000,
    db_domain_size=500_000,
    sets_per_profile_sl=100,
    sets_per_profile_l=5,
)

PRESETS: Dict[str, ExperimentConfig] = {
    "smoke": SMOKE,
    "medium": MEDIUM,
    "default": DEFAULT,
    "paper": PAPER,
}


def preset(name: str) -> ExperimentConfig:
    """Return a named preset (``smoke``, ``medium``, ``default``, or ``paper``)."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ExperimentConfigError(
            f"unknown preset {name!r}; expected one of {sorted(PRESETS)}"
        ) from None
