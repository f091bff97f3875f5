"""Atoms and facts.

An atom over a schema is an expression ``R(t1, ..., tn)`` where the ``ti``
are terms.  A *fact* is an atom whose arguments are all constants; the chase
additionally produces atoms whose arguments may be labeled nulls.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from ..exceptions import ValidationError
from .predicates import Position, Predicate
from .terms import Constant, Null, Term, Variable, is_ground


class Atom:
    """An immutable relational atom ``R(t1, ..., tn)``.

    The predicate arity is always consistent with the number of arguments;
    this is checked at construction time so the rest of the library never has
    to re-validate it.
    """

    __slots__ = ("predicate", "terms", "_hash")

    def __init__(self, predicate: Predicate, terms: Iterable[Term]):
        terms = tuple(terms)
        if len(terms) != predicate.arity:
            raise ValidationError(
                f"atom over {predicate} must have {predicate.arity} arguments, "
                f"got {len(terms)}"
            )
        for term in terms:
            if not isinstance(term, Term):
                raise ValidationError(f"atom argument {term!r} is not a Term")
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", hash((predicate, terms)))

    def __setattr__(self, key, value):
        raise AttributeError("Atom is immutable")

    def __reduce__(self):
        # Rebuild through __init__ (immutability forbids the default
        # slot-state protocol); needed to ship atoms to process workers.
        return (type(self), (self.predicate, self.terms))

    @classmethod
    def of(cls, name: str, *terms: Term) -> "Atom":
        """Convenience constructor: ``Atom.of("R", x, y)`` builds ``R(x, y)``."""
        return cls(Predicate(name, len(terms)), terms)

    def __eq__(self, other):
        return (
            isinstance(other, Atom)
            and self.predicate == other.predicate
            and self.terms == other.terms
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if not isinstance(other, Atom):
            return NotImplemented
        return (self.predicate, self.terms) < (other.predicate, other.terms)

    def __repr__(self):
        args = ", ".join(str(t) for t in self.terms)
        return f"{self.predicate.name}({args})"

    @property
    def arity(self) -> int:
        """Arity of the atom's predicate."""
        return self.predicate.arity

    def variables(self) -> FrozenSet[Variable]:
        """Return ``var(atom)``: the set of variables occurring in the atom."""
        return frozenset(t for t in self.terms if isinstance(t, Variable))

    def constants(self) -> FrozenSet[Constant]:
        """Return the set of constants occurring in the atom."""
        return frozenset(t for t in self.terms if isinstance(t, Constant))

    def nulls(self) -> FrozenSet[Null]:
        """Return the set of labeled nulls occurring in the atom."""
        return frozenset(t for t in self.terms if isinstance(t, Null))

    def domain(self) -> FrozenSet[Term]:
        """Return ``dom(atom)``: constants and nulls occurring in the atom."""
        return frozenset(t for t in self.terms if not isinstance(t, Variable))

    def is_fact(self) -> bool:
        """Return ``True`` when every argument is a constant."""
        return all(isinstance(t, Constant) for t in self.terms)

    def is_ground(self) -> bool:
        """Return ``True`` when no argument is a variable (constants and nulls ok)."""
        return all(is_ground(t) for t in self.terms)

    def positions_of(self, term: Term) -> Tuple[Position, ...]:
        """Return ``pos(atom, term)``: positions of the atom at which *term* occurs."""
        return tuple(
            Position(self.predicate, i + 1)
            for i, t in enumerate(self.terms)
            if t == term
        )

    def substitute(self, mapping: Dict[Term, Term]) -> "Atom":
        """Return the atom obtained by replacing terms according to *mapping*.

        Terms absent from *mapping* are left untouched.
        """
        return Atom(self.predicate, tuple(mapping.get(t, t) for t in self.terms))

    def has_repeated_terms(self) -> bool:
        """Return ``True`` when some term occurs more than once in the atom."""
        return len(set(self.terms)) < len(self.terms)


def row_sort_key(terms: Iterable[Term]) -> List[str]:
    """Sort key ordering the rows of one predicate as :meth:`Atom.__lt__` does.

    Each term's type name and name, flat (rows of one predicate are equally
    wide).  Only the terms' own strings are referenced, so a round's worth of
    keys allocates no new ones.
    """
    key: List[str] = []
    for term in terms:
        key.append(type(term).__name__)
        key.append(term.name)
    return key


def atom_sort_key(atom: Atom) -> List[Union[str, int]]:
    """Sort key ordering atoms exactly as :meth:`Atom.__lt__` does, in C:
    predicate name, arity, then :func:`row_sort_key` of the terms."""
    predicate = atom.predicate
    key: List[Union[str, int]] = [predicate.name, predicate.arity]
    key.extend(row_sort_key(atom.terms))
    return key


def match_atom(
    pattern: Atom, target: Atom, base: Optional[Dict[Term, Term]] = None
) -> Optional[Dict[Term, Term]]:
    """Try to extend *base* into a mapping that sends *pattern* onto *target*.

    Returns the extended mapping (a fresh dict), or ``None`` when no
    consistent extension exists.  Constants in the pattern must match
    verbatim: a homomorphism is the identity on constants.
    """
    if pattern.predicate != target.predicate:
        return None
    mapping = dict(base or {})
    for source, image in zip(pattern.terms, target.terms):
        if isinstance(source, Constant):
            if source != image:
                return None
            continue
        bound = mapping.get(source)
        if bound is None:
            mapping[source] = image
        elif bound != image:
            return None
    return mapping


def variables_of(atoms: Iterable[Atom]) -> Set[Variable]:
    """Return ``var(A)`` for a set of atoms *A*."""
    result: Set[Variable] = set()
    for atom in atoms:
        result.update(atom.variables())
    return result


def positions_of(atoms: Iterable[Atom], term: Term) -> Set[Position]:
    """Return ``pos(A, term)`` for a set of atoms *A*."""
    result: Set[Position] = set()
    for atom in atoms:
        result.update(atom.positions_of(term))
    return result


def schema_of(atoms: Iterable[Atom]):
    """Return the set of predicates used by *atoms* (insertion-order free)."""
    return {atom.predicate for atom in atoms}
