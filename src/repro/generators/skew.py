"""Deterministic heavy-hitter workloads for the parallel chase.

The parallel chase hash-partitions join work by the seed atom's join-key
terms, so a key that dominates the data concentrates nearly all matching on
one worker — the regime where seed shipping, pickling and the coordinator
merge do the work.  This module generates that regime on purpose and
*deterministically*: the workload is a pure function of its knobs, so the
skew tests, the conformance property suite, and the benchmark's
``chase_skew_par2`` workload all chase the exact same instance.

The shape is a star join with a fan-out chain behind it::

    mid(K, V)   :- src(K, V).                  -- copy: round 1's delta is the
                                                  full Zipf profile, keyed by K
    out(V, D)   :- mid(K, V), dim(K, D).       -- the skewed multi-way join
    hop1(V, D)  :- out(V, D).                  -- fan-out chain, one rule per
    ...                                           depth level
    hop<depth>(V, D) :- hop<depth-1>(V, D).

``src`` holds *rows* tuples spread over *n_keys* keys by a Zipf-like
profile (key ``i`` weighted ``1/(i+1)**skew``, rounded by largest
remainder), and ``dim`` holds *fan_out* tuples per key, so the heaviest
key owns both the largest delta partition and the widest join fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..core.atoms import Atom
from ..core.instances import Database
from ..core.predicates import Predicate
from ..core.rules import compile_rule
from ..core.terms import Constant
from ..core.tgds import TGDSet
from ..exceptions import ExperimentConfigError


@dataclass(frozen=True)
class SkewWorkload:
    """One generated heavy-hitter workload, with its key profile attached."""

    database: Database
    tgds: TGDSet
    #: ``(key name, src rows under that key)``, heaviest first — the ground
    #: truth the skew tests assert against.
    key_counts: Tuple[Tuple[str, int], ...]
    n_keys: int
    rows: int
    skew: float
    fan_out: int
    depth: int
    seed: int

    @property
    def expected_atoms(self) -> int:
        """Atoms the semi-oblivious chase creates: mid + out + the hop chain."""
        return self.rows + self.rows * self.fan_out * (1 + self.depth)


def zipf_allocation(rows: int, n_keys: int, skew: float) -> List[int]:
    """Split *rows* over *n_keys* keys with Zipf-like weights ``1/(i+1)**skew``.

    Rounding is largest-remainder with the key index as tie-break, so the
    allocation is deterministic, sums exactly to *rows*, and is
    non-increasing in the key index.
    """
    if rows < 0:
        raise ExperimentConfigError(f"rows must be >= 0, got {rows}")
    if n_keys < 1:
        raise ExperimentConfigError(f"n_keys must be >= 1, got {n_keys}")
    weights = [1.0 / (index + 1) ** skew for index in range(n_keys)]
    total = sum(weights)
    shares = [rows * weight / total for weight in weights]
    counts = [int(share) for share in shares]
    order = sorted(range(n_keys), key=lambda i: (-(shares[i] - counts[i]), i))
    for index in order[: rows - sum(counts)]:
        counts[index] += 1
    return counts


def generate_skew_workload(
    n_keys: int = 8,
    rows: int = 256,
    skew: float = 1.5,
    fan_out: int = 2,
    depth: int = 1,
    seed: int = 0,
) -> SkewWorkload:
    """Build the deterministic heavy-hitter workload described in the module doc.

    *seed* only renames the generated constants (``v<seed>_<row>`` values and
    ``k<seed>_<i>`` keys): two workloads with different seeds share no
    constants but have identical shape, which is what corpus replay needs.
    """
    if skew < 0:
        raise ExperimentConfigError(f"skew must be >= 0, got {skew}")
    if fan_out < 1:
        raise ExperimentConfigError(f"fan_out must be >= 1, got {fan_out}")
    if depth < 0:
        raise ExperimentConfigError(f"depth must be >= 0, got {depth}")
    counts = zipf_allocation(rows, n_keys, skew)

    src = Predicate("src", 2)
    dim = Predicate("dim", 2)
    mid = Predicate("mid", 2)
    out = Predicate("out", 2)

    keys = [Constant(f"k{seed}_{index}") for index in range(n_keys)]
    database = Database()
    row = 0
    for key, count in zip(keys, counts):
        for _ in range(count):
            database.add(Atom(src, (key, Constant(f"v{seed}_{row}"))))
            row += 1
    for index, key in enumerate(keys):
        for fan in range(fan_out):
            database.add(Atom(dim, (key, Constant(f"d{seed}_{index}_{fan}"))))

    tgds = TGDSet()  # "KV" names the variables K and V, one per position
    tgds.add_rule(compile_rule([(src, "KV")], [(mid, "KV")], "copy"))
    tgds.add_rule(compile_rule([(mid, "KV"), (dim, "KD")], [(out, "VD")], "star_join"))
    previous = out
    for level in range(1, depth + 1):
        hop = Predicate(f"hop{level}", 2)
        tgds.add_rule(compile_rule([(previous, "VD")], [(hop, "VD")], f"hop{level}"))
        previous = hop

    key_counts = tuple(
        (key.name, count)
        for key, count in sorted(zip(keys, counts), key=lambda pair: -pair[1])
    )
    return SkewWorkload(
        database=database,
        tgds=tgds,
        key_counts=key_counts,
        n_keys=n_keys,
        rows=rows,
        skew=skew,
        fan_out=fan_out,
        depth=depth,
        seed=seed,
    )
