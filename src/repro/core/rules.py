"""Compiled rules: a TGD as interned predicates and integer variable slots.

This module owns the one numbering of a rule's variables, which the chase's
join patterns and firing plans, Algorithm 2's transfer plans, the dependency
graph and the ``sql-pushdown`` compiler all read.  Body slots number the
body's variables by first occurrence across the body; a head slot is a body
variable's slot, or ``~n`` for the ``n``-th existential variable by first
occurrence across the head.  The variable names are kept, so witnesses sorted
by name and null names are what the ``Variable`` objects would give.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple, TypeVar

from .predicates import Predicate

#: One compiled atom: its predicate and, per argument position, a slot.
CompiledAtom = Tuple[Predicate, Tuple[int, ...]]

_Key = TypeVar("_Key", bound=Hashable)


def number_atoms(
    atoms: Iterable[Tuple[Predicate, Iterable[_Key]]], numbers: Dict[_Key, int]
) -> Tuple[CompiledAtom, ...]:
    """Number the keys of *atoms* by first occurrence, extending *numbers*
    (a key already in it keeps its slot)."""
    compiled: List[CompiledAtom] = []
    for predicate, keys in atoms:
        slots: List[int] = []
        for key in keys:
            slot = numbers.get(key)
            if slot is None:
                slot = numbers[key] = len(numbers)
            slots.append(slot)
        compiled.append((predicate, tuple(slots)))
    return tuple(compiled)


class CompiledRule:
    """One TGD as slot tuples.  Equality and hashing ignore the label, as
    :class:`~repro.core.tgds.TGD`'s do."""

    __slots__ = ("body", "head", "names", "existentials", "label", "_hash", "_frontier")

    def __init__(
        self,
        body: Tuple[CompiledAtom, ...],
        head: Tuple[CompiledAtom, ...],
        names: Tuple[str, ...],
        existentials: Tuple[str, ...],
        label: Optional[str] = None,
    ) -> None:
        self.body = body
        self.head = head
        self.names = names  #: the variable name of each body slot
        self.existentials = existentials  #: ``existentials[n]`` names slot ``~n``
        self.label = label
        self._hash = hash((body, head, names, existentials))
        self._frontier: Optional[Tuple[int, ...]] = None

    def __reduce__(self) -> Tuple[type, Tuple[object, ...]]:
        # Rebuild through __init__: the cached hash covers str hashes, which
        # are only valid under the PYTHONHASHSEED of the process that made them.
        return (CompiledRule, (self.body, self.head, self.names, self.existentials, self.label))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CompiledRule) and (
            self.body, self.head, self.names, self.existentials
        ) == (other.body, other.head, other.names, other.existentials)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"CompiledRule({self.body!r}, {self.head!r}, {self.names!r}, {self.existentials!r})"

    def slot_names(self) -> Tuple[str, ...]:
        """The variable names indexable by every slot, ``~n`` included."""
        return self.names + self.existentials[::-1]

    def is_simple_linear(self) -> bool:
        """One body atom with no repeated variable (class ``SL``)."""
        return len(self.body) == 1 and len(self.names) == len(self.body[0][1])

    def frontier(self) -> Tuple[int, ...]:
        """The body slots that occur in the head (``fr(σ)``), ascending."""
        if self._frontier is None:
            self._frontier = tuple(
                sorted({slot for _, slots in self.head for slot in slots if slot >= 0})
            )
        return self._frontier

    def witness(self, null_scope: str) -> Tuple[int, ...]:
        """The slots a trigger is keyed and its nulls named by, sorted by
        variable name: the frontier, or every body slot (``"homomorphism"``)."""
        scope = range(len(self.names)) if null_scope == "homomorphism" else self.frontier()
        return tuple(sorted(scope, key=lambda slot: self.names[slot]))


#: A rule body numbered by :func:`number_body`: its compiled atoms, the slot
#: of each variable name, and the names in slot order.
NumberedBody = Tuple[Tuple[CompiledAtom, ...], Dict[str, int], Tuple[str, ...]]


def number_body(body: Iterable[Tuple[Predicate, Iterable[str]]]) -> NumberedBody:
    """Number a body given as ``(predicate, variable names)`` per atom.

    Rules that share a body share its numbering: a parser numbers each
    distinct body once and hands the result to :func:`compile_head`.
    """
    numbers: Dict[str, int] = {}
    atoms = number_atoms(body, numbers)
    return atoms, numbers, tuple(numbers)


def compile_head(
    body: NumberedBody,
    head: Iterable[Tuple[Predicate, Iterable[str]]],
    label: Optional[str] = None,
) -> CompiledRule:
    """Compile the rule with the numbered *body* and *head* (``(predicate,
    variable names)`` per atom)."""
    atoms, numbers, names = body
    existentials: Dict[str, int] = {}
    head_atoms: List[CompiledAtom] = []
    for predicate, head_names in head:
        slots: List[int] = []
        for name in head_names:
            slot = numbers.get(name)
            if slot is None:
                slot = existentials.get(name)
                if slot is None:  # the head's own variables are ~0, ~1, ...
                    slot = existentials[name] = ~len(existentials)
            slots.append(slot)
        head_atoms.append((predicate, tuple(slots)))
    return CompiledRule(atoms, tuple(head_atoms), names, tuple(existentials), label)


def compile_rule(
    body: Iterable[Tuple[Predicate, Iterable[str]]],
    head: Iterable[Tuple[Predicate, Iterable[str]]],
    label: Optional[str] = None,
) -> CompiledRule:
    """Compile a rule given as ``(predicate, variable names)`` per atom."""
    return compile_head(number_body(body), head, label)
