"""Predicate profiles, TGD profiles, and combined profiles (Sections 7.1 and 8.1).

The paper organises its synthetic workloads around two families of
profiles:

* three **predicate profiles** — rule sets mentioning [5,200], [200,400] and
  [400,600] predicates of arity between 1 and 5;
* three **TGD profiles** — rule sets with [1,333K], [333K,666K] and
  [666K,1M] TGDs.

Their cross product gives nine **combined profiles**; the paper generates
100 rule sets per combined profile for simple-linear TGDs (900 sets) and 5
per profile for linear TGDs (45 sets).  The absolute sizes target a 16 GB
Java server; this module keeps the *structure* (three-by-three grid, same
predicate ranges, same arity range) but exposes a ``scale`` knob that
shrinks the TGD counts so that the default harness runs on a laptop in
seconds.  ``scale=1.0`` reproduces the paper's nominal counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..exceptions import ExperimentConfigError

#: The paper's predicate profiles: [5,200], [200,400], [400,600].
PAPER_PREDICATE_PROFILES: Tuple[Tuple[int, int], ...] = ((5, 200), (200, 400), (400, 600))

#: The paper's TGD profiles: [1,333K], [333K,666K], [666K,1M].
PAPER_TGD_PROFILES: Tuple[Tuple[int, int], ...] = ((1, 333_000), (333_000, 666_000), (666_000, 1_000_000))

#: Arity range used throughout the paper's synthetic experiments.
PAPER_ARITY_RANGE: Tuple[int, int] = (1, 5)

#: Size of the global schema from which rule sets draw their predicates.
PAPER_SCHEMA_SIZE: int = 1000

#: Database sizes (tuples per predicate) of the ``D*`` views in Section 8.1.
PAPER_TUPLES_PER_PREDICATE: Tuple[int, ...] = (1_000, 50_000, 100_000, 250_000, 500_000)


@dataclass(frozen=True)
class PredicateProfile:
    """A range of schema sizes (number of predicates used by a rule set)."""

    low: int
    high: int

    def __post_init__(self):
        if self.low < 1 or self.high < self.low:
            raise ExperimentConfigError(
                f"invalid predicate profile [{self.low},{self.high}]"
            )

    @property
    def label(self) -> str:
        """Human-readable label, e.g. ``"[5,200]"``."""
        return f"[{self.low},{self.high}]"

    def sample(self, rng) -> int:
        """Draw a schema size uniformly from the profile range."""
        return rng.randint(self.low, self.high)


@dataclass(frozen=True)
class TGDProfile:
    """A range of rule-set sizes (number of TGDs)."""

    low: int
    high: int

    def __post_init__(self):
        if self.low < 1 or self.high < self.low:
            raise ExperimentConfigError(f"invalid TGD profile [{self.low},{self.high}]")

    @property
    def label(self) -> str:
        """Human-readable label, e.g. ``"[1,333000]"``."""
        return f"[{self.low},{self.high}]"

    def sample(self, rng) -> int:
        """Draw a rule count uniformly from the profile range."""
        return rng.randint(self.low, self.high)

    def scaled(self, scale: float) -> "TGDProfile":
        """Return the profile with both bounds multiplied by *scale* (min 1)."""
        if scale <= 0:
            raise ExperimentConfigError("scale must be positive")
        return TGDProfile(max(1, round(self.low * scale)), max(1, round(self.high * scale)))


@dataclass(frozen=True)
class CombinedProfile:
    """The cross product of a predicate profile and a TGD profile."""

    predicates: PredicateProfile
    tgds: TGDProfile

    @property
    def label(self) -> str:
        """Label combining both ranges."""
        return f"preds{self.predicates.label} x tgds{self.tgds.label}"

    def sample_sizes(self, rng) -> Tuple[int, int]:
        """Draw a (schema size, rule count) pair from the profile."""
        return self.predicates.sample(rng), self.tgds.sample(rng)


def paper_predicate_profiles() -> List[PredicateProfile]:
    """Return the paper's three predicate profiles."""
    return [PredicateProfile(low, high) for low, high in PAPER_PREDICATE_PROFILES]


def paper_tgd_profiles(scale: float = 1.0) -> List[TGDProfile]:
    """Return the paper's three TGD profiles, optionally scaled down.

    ``scale=1.0`` gives the paper's nominal ranges (up to 1M TGDs);
    the experiment harness defaults to much smaller scales so that the full
    grid runs interactively.
    """
    profiles = [TGDProfile(low, high) for low, high in PAPER_TGD_PROFILES]
    if scale == 1.0:
        return profiles
    return [profile.scaled(scale) for profile in profiles]


def combined_profiles(scale: float = 1.0) -> List[CombinedProfile]:
    """Return the nine combined profiles of the paper, optionally scaled."""
    return [
        CombinedProfile(predicate_profile, tgd_profile)
        for predicate_profile in paper_predicate_profiles()
        for tgd_profile in paper_tgd_profiles(scale)
    ]


def database_sizes(scale: float = 1.0) -> List[int]:
    """Return the ``D*`` view sizes (tuples per predicate), optionally scaled."""
    if scale <= 0:
        raise ExperimentConfigError("scale must be positive")
    sizes = []
    for size in PAPER_TUPLES_PER_PREDICATE:
        sizes.append(max(1, round(size * scale)))
    # Deduplicate while preserving order (aggressive scaling can collapse sizes).
    seen = set()
    unique_sizes = []
    for size in sizes:
        if size not in seen:
            seen.add(size)
            unique_sizes.append(size)
    return unique_sizes
