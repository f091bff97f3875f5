"""Golden rows for the paper's experiments, timings dropped.

Every ``FIGURE_RUNNERS`` id at ``SMOKE`` and ``table1``/``table2`` on a small
scenario list must produce exactly the rows pinned in ``golden_rows.json``:
same rows, same order, same columns in the same order, same values.  Every
``t_*`` column is a wall-clock measurement and is dropped before comparing.

Regenerate the fixture (only when a change is *meant* to alter the rows)::

    PYTHONPATH=src python tests/experiments/test_golden_rows.py --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.experiments import SMOKE
from repro.experiments.figures import FIGURE_RUNNERS
from repro.experiments.tables import TABLE_RUNNERS

FIXTURE = Path(__file__).with_name("golden_rows.json")

TABLE_SCENARIOS = ("LUBM-1", "Deep-100", "STB-128")
TABLE_SCALE = 0.02


def _untimed(rows):
    """Drop the ``t_*`` columns and normalise values through JSON."""
    return json.loads(
        json.dumps(
            [{key: value for key, value in row.items() if not key.startswith("t_")} for row in rows]
        )
    )


def _measure(experiment: str):
    if experiment in TABLE_RUNNERS:
        return _untimed(TABLE_RUNNERS[experiment](names=TABLE_SCENARIOS, scale=TABLE_SCALE))
    return _untimed(FIGURE_RUNNERS[experiment](SMOKE))


def _ordered(rows):
    """Rows as lists of ``(column, value)`` pairs, so column order is pinned too."""
    return [list(row.items()) for row in rows]


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_figure_and_table(golden):
    assert set(golden) == set(FIGURE_RUNNERS) | set(TABLE_RUNNERS)


@pytest.mark.parametrize("experiment", sorted(FIGURE_RUNNERS) + sorted(TABLE_RUNNERS))
def test_rows_match_golden(golden, experiment):
    assert _ordered(_measure(experiment)) == _ordered(golden[experiment])


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_golden_rows.py --regenerate")
    experiments = sorted(FIGURE_RUNNERS) + sorted(TABLE_RUNNERS)
    FIXTURE.write_text(
        json.dumps({name: _measure(name) for name in experiments}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {FIXTURE}")
