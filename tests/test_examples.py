"""Every program under ``examples/`` runs to exit 0.

The examples are standalone scripts, so each runs as one: a subprocess of
this interpreter with ``src`` on ``PYTHONPATH``, at its default (smoke)
scale.  An example that imports a deleted name fails here, not in a reader's
terminal.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_every_example_is_collected():
    assert [path.name for path in EXAMPLES] == [
        "data_exchange.py",
        "ontology_reasoning.py",
        "quickstart.py",
        "scalability_study.py",
    ]


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_zero(example):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    completed = subprocess.run(
        [sys.executable, str(example)],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout
