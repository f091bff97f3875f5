"""Exchange topologies of the parallel chase.

The parallel chase has one: the coordinator merge of
:mod:`repro.chase.parallel` — workers report the firing keys they matched,
the coordinator dedups them, inserts the round's rows and ships the next
round's work.

``"shuffle"`` names the deleted hash-shuffle exchange.  The benchmark's
layer contract (``BENCHMARK.json``) still declares that exchange's
``chase.exchange.*`` layers, and ``bench/`` times one traced run per name
listed here, so the name stays accepted until the benchmark drops those
layers: a ``"shuffle"`` run is the coordinator merge, and its routing
counters read 0.  :func:`~repro.chase.parallel.parallel_chase` is the one
function that takes ``exchange=``; any name not listed here is a
``ValueError``.
"""

#: Exchange names :func:`~repro.chase.parallel.parallel_chase` accepts.
EXCHANGES = ("coordinator", "shuffle")
