"""Golden rows for the paper's experiments, timings dropped.

Every experiment id of ``FIGURES`` at ``SMOKE`` (``table1``/``table2`` on a
small scenario list) must produce exactly the rows pinned in
``golden_rows.json``: same rows, same order, same columns in the same order,
same values.  Every ``t_*`` column is a wall-clock measurement, or derived
from one (``materialization_vs_acyclicity``'s ``t_slowdown`` is a ratio of two
timings), and is dropped before comparing.

``materialization_vs_acyclicity``'s rows come from the test run's
``materialization_rows`` fixture, which ``TestAblations`` reads too.

Regenerate the fixture (only when a change is *meant* to alter the rows)::

    PYTHONPATH=src python -m tests.experiments.test_golden_rows --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.experiments import FIGURES, run_experiment
from tests.helpers import GOLDEN_CONFIG as CONFIG

FIXTURE = Path(__file__).with_name("golden_rows.json")

PINNED = sorted(FIGURES)


def _untimed(rows):
    """Drop the ``t_*`` columns and normalise values through JSON."""
    return json.loads(
        json.dumps(
            [{key: value for key, value in row.items() if not key.startswith("t_")} for row in rows]
        )
    )


def _measure(experiment: str):
    return _untimed(run_experiment(experiment, CONFIG))


def _ordered(rows):
    """Rows as lists of ``(column, value)`` pairs, so column order is pinned too."""
    return [list(row.items()) for row in rows]


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_figure_and_table(golden):
    assert set(golden) == set(PINNED)


@pytest.mark.parametrize("experiment", PINNED)
def test_rows_match_golden(golden, experiment, request):
    if experiment == "materialization_vs_acyclicity":
        rows = _untimed(request.getfixturevalue("materialization_rows"))
    else:
        rows = _measure(experiment)
    assert _ordered(rows) == _ordered(golden[experiment])


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python -m tests.experiments.test_golden_rows --regenerate")
    FIXTURE.write_text(
        json.dumps({name: _measure(name) for name in PINNED}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {FIXTURE}")
