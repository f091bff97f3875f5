"""One run in a fresh interpreter.

Every (workload, trace mode) pair is measured in its own child process so
heap state, warmed caches and set order cannot leak from one workload into
the next, and so ``peak_rss_mb`` is the peak of that workload alone.
``PYTHONHASHSEED=0`` pins string hashing — and with it set iteration order
and dict collision patterns — across runs.

:func:`launch` is the parent side; ``python -m bench.child`` is the child.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
from typing import Dict

from .spec import ROOT

#: The whole child — set-up, operations, verification — must end within this.
CHILD_TIMEOUT_S = 170.0


class ChildFailed(Exception):
    """The child crashed, timed out, or printed no result."""


def launch(name: str, trace: int, seed: int, seconds: float, scale: float) -> Dict[str, object]:
    """Measure workload *name* in a fresh child interpreter; return its raw result."""
    python_path = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        python_path.append(os.environ["PYTHONPATH"])
    environment = dict(
        os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(python_path)
    )
    child = subprocess.Popen(
        [sys.executable, "-m", "bench.child", name, str(trace), str(seed), str(seconds), str(scale)],
        cwd=ROOT,
        env=environment,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        output, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The child leads its own session: take its pool workers down with it.
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise ChildFailed(f"{name}: no result within {CHILD_TIMEOUT_S:.0f}s") from None
    if child.returncode != 0:
        raise ChildFailed(f"{name}: child interpreter exited with code {child.returncode}")
    lines = output.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{name}: child interpreter printed no result")
    return json.loads(lines[-1])


def main(argv) -> int:
    # Imported here, not at the top: the parent imports this module for
    # launch() without src/ on its path.
    from repro.obs import MonotonicClock

    from .runner import measure
    from .workloads import WORKLOADS

    name, trace, seed, seconds, scale = argv
    raw = measure(
        WORKLOADS[name],
        seed=int(seed),
        seconds=float(seconds),
        trace=int(trace),
        scale=float(scale),
        clock=MonotonicClock(),
    )
    # Linux reports ru_maxrss in KiB.
    raw["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(raw))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
