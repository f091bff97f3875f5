"""Sample summaries: median, quartiles, extremes and n.

A run takes on the order of ten timed operations, so no tail percentile has
ten samples beyond it; timings are therefore reported as median with
quartiles, minimum, maximum and the sample count, never as p95/p99.
Quartiles follow ``statistics.quantiles(values, n=4)`` — the same
definition the acceptance driver applies across runs.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence


def quiet_half(samples: Sequence[float]) -> List[float]:
    """The faster half of *samples* (the middle one included when n is odd).

    On a shared host, noise only ever adds time: a neighbour's burst or a
    contention phase slows operations down, nothing speeds them up.  On the
    reference host those phases cost +20–37 % and last 2–24 s — up to a
    whole run — so the median of *all* operations swings by that much
    between runs while the faster half stays put.  The operations' timing
    metrics are therefore summarised over the faster half only; the raw
    samples are kept in the report.
    """
    ordered = sorted(samples)
    return ordered[: (len(ordered) + 1) // 2]


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Summarise *samples*; ``spread`` is the inter-quartile range ÷ median."""
    if not samples:
        raise ValueError("cannot summarise an empty sample")
    median = statistics.median(samples)
    if len(samples) == 1:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {
        "value": median,
        "q1": q1,
        "q3": q3,
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "spread": (q3 - q1) / median if median else 0.0,
    }
