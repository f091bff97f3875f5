"""Predicates, positions, and schemas.

A schema ``S`` is a finite set of relation symbols with associated arities.
A *position* ``(R, i)`` identifies the ``i``-th argument of predicate ``R``
(1-based, as in the paper).  Positions are the nodes of the dependency graph
used by the acyclicity-based termination algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from ..exceptions import ValidationError


@dataclass(frozen=True, order=True)
class Predicate:
    """A relation symbol with its arity (written ``R/n`` in the paper)."""

    name: str
    arity: int

    def __post_init__(self):
        if not self.name:
            raise ValidationError("predicate name must be non-empty")
        if self.arity < 0:
            raise ValidationError(
                f"predicate {self.name!r} must have non-negative arity, got {self.arity}"
            )

    def positions(self):
        """Return the tuple of positions ``(R, 1), ..., (R, n)`` of this predicate."""
        return tuple(Position(self, i) for i in range(1, self.arity + 1))

    def __str__(self):
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True, order=True)
class Position:
    """A predicate position ``(R, i)`` with ``1 <= i <= arity(R)``."""

    predicate: Predicate
    index: int

    def __post_init__(self):
        if not 1 <= self.index <= self.predicate.arity:
            raise ValidationError(
                f"position index {self.index} out of range for {self.predicate}"
            )

    def __str__(self):
        return f"({self.predicate.name},{self.index})"


class Schema:
    """A finite set of predicates, addressable by name.

    The schema object is deliberately small: it only guards against two
    predicates sharing a name with different arities, and offers the
    ``pos(S)`` operation from the paper (:meth:`positions`).
    """

    def __init__(self, predicates: Iterable[Predicate] = ()):
        self._by_name: Dict[str, Predicate] = {}
        for predicate in predicates:
            self.add(predicate)

    def add(self, predicate: Predicate) -> Predicate:
        """Add *predicate*, rejecting arity conflicts; return the stored predicate."""
        existing = self._by_name.get(predicate.name)
        if existing is not None:
            if existing.arity != predicate.arity:
                raise ValidationError(
                    f"predicate {predicate.name!r} declared with arity "
                    f"{predicate.arity} but already known with arity {existing.arity}"
                )
            return existing
        self._by_name[predicate.name] = predicate
        return predicate

    def declare(self, name: str, arity: int) -> Predicate:
        """Return the stored predicate ``name/arity``, adding it on first sight.

        :meth:`add` without building a :class:`Predicate` for a name the
        schema already knows — what a parser does once per atom.
        """
        existing = self._by_name.get(name)
        if existing is not None and existing.arity == arity:
            return existing
        return self.add(Predicate(name, arity))

    def get(self, name: str) -> Predicate:
        """Return the predicate called *name*; raise ``KeyError`` if unknown."""
        return self._by_name[name]

    def __contains__(self, item) -> bool:
        if isinstance(item, Predicate):
            return self._by_name.get(item.name) == item
        return item in self._by_name

    def __iter__(self) -> Iterator[Predicate]:
        return iter(sorted(self._by_name.values()))

    def __len__(self) -> int:
        return len(self._by_name)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._by_name == other._by_name

    def __repr__(self):
        names = ", ".join(str(p) for p in self)
        return f"Schema({{{names}}})"

    @property
    def predicates(self) -> Tuple[Predicate, ...]:
        """Return all predicates, sorted by name for reproducibility."""
        return tuple(sorted(self._by_name.values()))

    def positions(self) -> List[Position]:
        """Return ``pos(S)``: every position of every predicate of the schema."""
        result: List[Position] = []
        for predicate in self:
            result.extend(predicate.positions())
        return result

    def max_arity(self) -> int:
        """Return the maximum arity over the schema (0 for an empty schema)."""
        return max((p.arity for p in self._by_name.values()), default=0)

    def union(self, other: "Schema") -> "Schema":
        """Return a new schema containing the predicates of both schemas."""
        merged = Schema(self.predicates)
        for predicate in other.predicates:
            merged.add(predicate)
        return merged
