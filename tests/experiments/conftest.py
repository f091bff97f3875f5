"""Fixtures shared by the experiment tests."""

from __future__ import annotations

import pytest

from repro.experiments import run_experiment
from tests.helpers import GOLDEN_CONFIG


@pytest.fixture(scope="session")
def materialization_rows():
    """``materialization_vs_acyclicity``'s rows, run once per test run.

    The ablation is the slowest experiment at this scale (its baseline
    materialises up to 50 000 atoms per rule set), and both the smoke
    assertions and the golden rows read its rows.  It reads only the
    configuration's seed, so the golden configuration is also ``SMOKE``'s.
    """
    return run_experiment("materialization_vs_acyclicity", GOLDEN_CONFIG)
