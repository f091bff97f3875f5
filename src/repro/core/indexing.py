"""Positional hash indexing and the partition hash every :class:`AtomStore` shares.

A :class:`PositionIndex` maps ``(position, term)`` pairs to the atoms of one
predicate holding *term* at *position*.  The in-memory
:class:`~repro.core.instances.Instance` keeps one per predicate (built
lazily on the first indexed lookup, then maintained incrementally), and
the trigger engine's join resolves candidates through :meth:`lookup`
instead of scanning whole predicate buckets.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .atoms import Atom
from .terms import Term


class PositionIndex:
    """Hash index on ``(position, term)`` for the atoms of one predicate."""

    __slots__ = ("_postings",)

    def __init__(self, atoms: Iterable[Atom] = ()):
        self._postings: Dict[Tuple[int, Term], Set[Atom]] = {}
        for atom in atoms:
            self.register(atom)

    def register(self, atom: Atom) -> None:
        """Index *atom* under every ``(position, term)`` pair it realises."""
        postings = self._postings
        for position, term in enumerate(atom.terms):
            entry = postings.get((position, term))
            if entry is None:
                postings[(position, term)] = {atom}
            else:
                entry.add(atom)

    def lookup(self, bindings) -> Union[Set[Atom], List[Atom], Tuple]:
        """Return the indexed atoms matching the non-empty positional *bindings*.

        The smallest posting list is scanned and the remaining bindings are
        checked directly on each candidate.  The returned collection must be
        treated as read-only.
        """
        smallest: Optional[Set[Atom]] = None
        for position, term in bindings.items():
            posting = self._postings.get((position, term))
            if not posting:
                return ()
            if smallest is None or len(posting) < len(smallest):
                smallest = posting
        if len(bindings) == 1:
            return smallest
        items = tuple(bindings.items())
        return [
            atom
            for atom in smallest
            if all(atom.terms[position] == term for position, term in items)
        ]


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


def atom_partition_of(atom: Atom, key_positions: Sequence[int], n_partitions: int) -> int:
    """Return the partition (``0 <= p < n_partitions``) that owns *atom*.

    *key_positions* names the argument positions forming the partition key;
    an empty sequence hashes the whole term tuple.
    """
    if n_partitions <= 1:
        return 0
    terms = atom.terms if not key_positions else tuple(atom.terms[p] for p in key_positions)
    return partition_hash(terms) % n_partitions


def _encode_key(value: object, out: List[str]) -> None:
    if isinstance(value, Term):
        out.append(f"T{type(value).__name__}\x1e{value.name}")
    elif isinstance(value, tuple):
        out.append(f"({len(value)}")
        for item in value:
            _encode_key(item, out)
        out.append(")")
    elif isinstance(value, bool):
        out.append(f"b{value}")
    elif isinstance(value, int):
        out.append(f"i{value}")
    elif isinstance(value, str):
        out.append(f"s{value}")
    else:  # pragma: no cover - firing keys only hold the types above
        raise TypeError(f"cannot stably hash {type(value).__name__} in a firing key")


def stable_key_hash(key: object) -> int:
    """A stable, process-independent hash of a chase firing key.

    Firing keys (:meth:`repro.chase.triggers.FiringPlan.key`) are nested
    tuples of ints, strings, and ground terms.  The shuffle exchange assigns
    each key a unique owning worker by hashing it,
    and — like :func:`partition_hash` — that assignment must agree between
    the coordinator and every process replica, so the hash is a CRC over a
    type-tagged recursive encoding rather than Python's randomized ``hash``.
    """
    out: List[str] = []
    _encode_key(key, out)
    return zlib.crc32("\x1f".join(out).encode("utf-8"))


def key_partition_of(key: object, n_partitions: int) -> int:
    """Return the partition (``0 <= p < n_partitions``) that owns *key*."""
    if n_partitions <= 1:
        return 0
    return stable_key_hash(key) % n_partitions
