"""Position postings and the partition hash of the parallel chase.

A *row* is the term tuple of one atom, stored under its predicate.  The
in-memory :class:`~repro.core.instances.Instance` indexes the rows of a
predicate per position — a ``term -> [rows]`` posting dict, built by
:func:`post_rows` on the first lookup binding that position and fed every
later insert — so the trigger engine's join resolves candidates instead of
scanning whole predicate buckets.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Sequence, Tuple

from .terms import Term

#: The terms of one stored atom, in argument order.
Row = Tuple[Term, ...]

#: One position's postings: term -> the rows holding it there.
Postings = Dict[Term, List[Row]]


def post_rows(postings: Postings, position: int, rows: Iterable[Row]) -> None:
    """Post each of *rows* under its term at *position*.

    The rows must be new to *postings* (callers dedup before posting), so a
    posting is a plain list.
    """
    for row in rows:
        term = row[position]
        entry = postings.get(term)
        if entry is None:
            postings[term] = [row]
        else:
            entry.append(row)


def partition_hash(terms: Sequence[Term]) -> int:
    """Return a stable, process-independent hash of a tuple of ground terms.

    The parallel chase assigns join work to workers by hashing the terms at a
    plan's join-key positions.  Python's builtin ``hash`` is randomized per
    interpreter (PYTHONHASHSEED), which would make worker assignment differ
    between the coordinator and its process replicas, so the partition hash
    is a CRC over a type-tagged encoding of the term names instead.
    """
    payload = "\x1f".join(f"{type(term).__name__}\x1e{term.name}" for term in terms)
    return zlib.crc32(payload.encode("utf-8"))


def row_partition_of(row: Row, key_positions: Sequence[int], n_partitions: int) -> int:
    """Return the partition (``0 <= p < n_partitions``) that owns *row*.

    *key_positions* names the argument positions forming the partition key;
    an empty sequence hashes the whole term tuple.
    """
    if n_partitions <= 1:
        return 0
    terms = row if not key_positions else tuple(row[p] for p in key_positions)
    return partition_hash(terms) % n_partitions


def partition_rows(
    rows: Iterable[Row], key_positions: Sequence[int], n_partitions: int, partition_index: int
) -> List[Row]:
    """The rows of *rows* that :func:`row_partition_of` assigns to *partition_index*.

    The parallel chase's one ownership filter: fed a store's
    ``rows_matching(predicate)``, it gives a worker its share of a relation,
    whatever the store — so the coordinator and every replica agree on who
    owns which row.
    """
    return [
        row for row in rows if row_partition_of(row, key_positions, n_partitions) == partition_index
    ]

