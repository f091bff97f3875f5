"""Tuple-generating dependencies (existential rules).

A TGD has the form ``∀x̄∀ȳ (φ(x̄, ȳ) → ∃z̄ ψ(x̄, z̄))`` where body ``φ`` and
head ``ψ`` are non-empty conjunctions of atoms.  The *frontier* ``fr(σ)`` is
the set of variables shared between body and head.

The two classes studied by the paper:

* **linear** TGDs (class ``L``): exactly one body atom;
* **simple-linear** TGDs (class ``SL``): linear, and no variable occurs more
  than once in the body atom.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..exceptions import NotLinearError, NotSimpleLinearError, ValidationError
from .atoms import Atom
from .predicates import Predicate, Schema
from .terms import Constant, Term, Variable

_EMPTY: FrozenSet[Term] = frozenset()
_VARIABLE = frozenset({Variable})


def _check_variables(atoms: Tuple[Atom, ...]) -> None:
    """Raise for the first term of *atoms*, in order, that is no Variable."""
    for atom in atoms:
        for term in atom.terms:
            if isinstance(term, Constant):
                raise ValidationError(f"TGDs are constant-free, found constant {term} in {atom}")
            if not isinstance(term, Variable):
                raise ValidationError(
                    f"TGD atoms may only mention variables, found {term!r} in {atom}"
                )


class TGD:
    """An immutable tuple-generating dependency.

    Parameters
    ----------
    body:
        Non-empty sequence of atoms over variables only.
    head:
        Non-empty sequence of atoms over variables only.  Head variables not
        occurring in the body are implicitly existentially quantified.
    label:
        Optional human-readable label used by parsers and generators.
    """

    __slots__ = (
        "body",
        "head",
        "label",
        "_hash",
        "_body_variables",
        "_head_variables",
        "_frontier",
        "_existential",
    )

    def __init__(self, body: Iterable[Atom], head: Iterable[Atom], label: Optional[str] = None):
        body = tuple(body)
        head = tuple(head)
        if not body:
            raise ValidationError("a TGD must have a non-empty body")
        if not head:
            raise ValidationError("a TGD must have a non-empty head")
        # One sweep collects each side's terms; they are the variable sets
        # once every one of them is checked to be a Variable.  The variable
        # sets are queried for every trigger the chase fires (firing keys,
        # null naming), so they are computed once here; TGDs are immutable,
        # which makes the caching safe.
        body_variables = _EMPTY.union(*[atom.terms for atom in body])
        head_variables = _EMPTY.union(*[atom.terms for atom in head])
        if not (
            _VARIABLE.issuperset(map(type, body_variables))
            and _VARIABLE.issuperset(map(type, head_variables))
        ):
            _check_variables(body + head)
        setter = object.__setattr__
        setter(self, "body", body)
        setter(self, "head", head)
        setter(self, "label", label)
        setter(self, "_hash", hash((body, head)))
        setter(self, "_body_variables", body_variables)
        setter(self, "_head_variables", head_variables)
        setter(self, "_frontier", body_variables & head_variables)
        setter(self, "_existential", head_variables - body_variables)

    def __setattr__(self, key, value):
        raise AttributeError("TGD is immutable")

    def __reduce__(self):
        # Rebuild through __init__ (immutability forbids the default
        # slot-state protocol); the parallel chase pickles TGDs to workers.
        return (type(self), (self.body, self.head, self.label))

    def __eq__(self, other):
        return isinstance(other, TGD) and self.body == other.body and self.head == other.head

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if not isinstance(other, TGD):
            return NotImplemented
        return (self.body, self.head) < (other.body, other.head)

    def __repr__(self):
        body = ", ".join(repr(a) for a in self.body)
        head = ", ".join(repr(a) for a in self.head)
        return f"{body} -> {head}"

    # ------------------------------------------------------------------ #
    # Variable sets

    def body_variables(self) -> FrozenSet[Variable]:
        """Return the variables occurring in the body."""
        return self._body_variables

    def head_variables(self) -> FrozenSet[Variable]:
        """Return the variables occurring in the head."""
        return self._head_variables

    def frontier(self) -> FrozenSet[Variable]:
        """Return ``fr(σ)``: variables occurring both in the body and in the head."""
        return self._frontier

    def existential_variables(self) -> FrozenSet[Variable]:
        """Return the existentially quantified variables (head-only variables)."""
        return self._existential

    def has_empty_frontier(self) -> bool:
        """Return ``True`` when no variable is shared between body and head."""
        return not self.frontier()

    # ------------------------------------------------------------------ #
    # Classification

    def is_linear(self) -> bool:
        """Return ``True`` when the TGD has exactly one body atom (class ``L``)."""
        return len(self.body) == 1

    def is_simple_linear(self) -> bool:
        """Return ``True`` for class ``SL``: linear with no repeated body variable."""
        return self.is_linear() and not self.body[0].has_repeated_terms()

    def is_single_head(self) -> bool:
        """Return ``True`` when the head consists of a single atom."""
        return len(self.head) == 1

    def body_atom(self) -> Atom:
        """Return the unique body atom of a linear TGD; raise otherwise."""
        if not self.is_linear():
            raise NotLinearError(f"TGD {self!r} is not linear")
        return self.body[0]

    # ------------------------------------------------------------------ #
    # Schema

    def predicates(self) -> Set[Predicate]:
        """Return the predicates occurring in the TGD."""
        return {atom.predicate for atom in self.body + self.head}

    def ensure_non_empty_frontier(self, padding_predicate: str = "TrueP") -> "TGD":
        """Return an equivalent-for-termination TGD with a non-empty frontier.

        The paper assumes w.l.o.g. that TGDs have a non-empty frontier
        (Section 3).  For a TGD with an empty frontier we follow the standard
        rewriting: add a fresh variable to the body?  That would change the
        body atom, so instead the accepted trick is to leave the TGD as is —
        an empty-frontier TGD fires at most once per distinct body witness
        and can only start finitely many fresh chase branches from the
        database, so for *linear* TGDs it never causes non-termination by
        itself.  Callers that insist on the paper's normal form should filter
        such TGDs with :func:`TGDSet.split_empty_frontier` and handle them
        separately; this method simply returns ``self`` and exists to make
        that contract explicit in code.
        """
        return self


class TGDSet:
    """An ordered, duplicate-free collection of TGDs with schema bookkeeping."""

    def __init__(self, tgds: Iterable[TGD] = ()):
        self._tgds: List[TGD] = []
        self._seen: Set[TGD] = set()
        for tgd in tgds:
            self.add(tgd)

    def add(self, tgd: TGD) -> bool:
        """Add *tgd* unless already present; return ``True`` when it was added."""
        if tgd in self._seen:
            return False
        self._seen.add(tgd)
        self._tgds.append(tgd)
        return True

    def update(self, tgds: Iterable[TGD]) -> int:
        """Add every TGD of *tgds*; return how many were new."""
        return sum(1 for tgd in tgds if self.add(tgd))

    def __iter__(self) -> Iterator[TGD]:
        return iter(self._tgds)

    def __len__(self) -> int:
        return len(self._tgds)

    def __contains__(self, tgd) -> bool:
        return tgd in self._seen

    def __eq__(self, other):
        if not isinstance(other, TGDSet):
            return NotImplemented
        return self._seen == other._seen

    def __repr__(self):
        return f"TGDSet({len(self)} TGDs)"

    @property
    def tgds(self) -> Tuple[TGD, ...]:
        """Return the TGDs in insertion order."""
        return tuple(self._tgds)

    def schema(self) -> Schema:
        """Return ``sch(Σ)``: the schema of the predicates occurring in the set."""
        schema = Schema()
        for tgd in self._tgds:
            for predicate in tgd.predicates():
                schema.add(predicate)
        return schema

    def is_linear(self) -> bool:
        """Return ``True`` when every TGD is linear."""
        return all(tgd.is_linear() for tgd in self._tgds)

    def is_simple_linear(self) -> bool:
        """Return ``True`` when every TGD is simple-linear."""
        return all(tgd.is_simple_linear() for tgd in self._tgds)

    def require_linear(self) -> "TGDSet":
        """Return ``self`` if every TGD is linear; raise :class:`NotLinearError` otherwise."""
        for tgd in self._tgds:
            if not tgd.is_linear():
                raise NotLinearError(f"TGD {tgd!r} is not linear")
        return self

    def require_simple_linear(self) -> "TGDSet":
        """Return ``self`` if every TGD is simple-linear; raise otherwise."""
        for tgd in self._tgds:
            if not tgd.is_simple_linear():
                raise NotSimpleLinearError(f"TGD {tgd!r} is not simple-linear")
        return self

    def split_empty_frontier(self) -> Tuple["TGDSet", "TGDSet"]:
        """Split into (non-empty-frontier TGDs, empty-frontier TGDs)."""
        non_empty = TGDSet(t for t in self._tgds if not t.has_empty_frontier())
        empty = TGDSet(t for t in self._tgds if t.has_empty_frontier())
        return non_empty, empty

    def by_body_predicate(self) -> Dict[Predicate, List[TGD]]:
        """Index linear TGDs by the predicate of their body atom.

        This is the index structure described in Section 5.4 that lets
        ``Applicable`` jump straight to the TGDs relevant to a shape.
        """
        self.require_linear()
        index: Dict[Predicate, List[TGD]] = {}
        for tgd in self._tgds:
            index.setdefault(tgd.body_atom().predicate, []).append(tgd)
        return index

    def max_arity(self) -> int:
        """Return the maximum predicate arity occurring in the set."""
        return self.schema().max_arity()

    def head_atom_count(self) -> int:
        """Return the total number of head atoms over all TGDs."""
        return sum(len(tgd.head) for tgd in self._tgds)
