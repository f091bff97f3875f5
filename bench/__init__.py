"""The repository's benchmark: ``python -m bench``.

Seven named workloads over the two things a user runs — "is the chase of
these rules on this database finite?" and "chase it" — each measured end to
end with tracing off, then once more traced for a per-layer breakdown timed
from outside the layers.  ``BENCHMARK.json`` at the repository root declares
every workload and metric name; ``bench/README.md`` says why each was chosen
and how to read the numbers.
"""
