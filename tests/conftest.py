"""Pytest configuration and shared fixtures."""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.core.instances import Database
from repro.core.parser import parse_database, parse_rules
from repro.core.tgds import TGDSet

# Keep hypothesis fast and deterministic in CI-like environments.
settings.register_profile(
    "repro",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# The pinned CI sweep for the property-based conformance suite: more
# examples, derandomized so every run explores the same 200 programs.
settings.register_profile(
    "ci",
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))


@pytest.fixture
def simple_rules() -> TGDSet:
    """A tiny weakly-acyclic simple-linear rule set."""
    return parse_rules(
        """
        R(x,y) -> S(y,z)
        S(x,y) -> T(x)
        """
    )


@pytest.fixture
def cyclic_rules() -> TGDSet:
    """The canonical non-terminating simple-linear rule: R(x,y) -> ∃z R(y,z)."""
    return parse_rules("R(x,y) -> R(y,z)")


@pytest.fixture
def example_1_1():
    """Example 1.1 of the paper: D = {R(a,a)}, R(x,y) -> ∃z R(z,x)."""
    return parse_database("R(a,a)."), parse_rules("R(x,y) -> R(z,x)")


@pytest.fixture
def example_3_4():
    """Example 3.4 of the paper: D = {R(a,b)}, R(x,x) -> ∃z R(z,x)."""
    return parse_database("R(a,b)."), parse_rules("R(x,x) -> R(z,x)")


@pytest.fixture
def small_database() -> Database:
    """A handful of facts over the R/S/T vocabulary."""
    return parse_database(
        """
        R(a,b).
        R(b,b).
        S(a,c).
        T(c).
        """
    )
