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

from operator import attrgetter
from typing import Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..exceptions import NotLinearError, NotSimpleLinearError, ValidationError
from .atoms import Atom
from .predicates import Predicate, Schema
from .rules import CompiledRule, compile_rule
from .terms import Constant, Variable

_name = attrgetter("name")


def _check_variables(atoms: Tuple[Atom, ...]) -> None:
    """Raise for the first term of *atoms*, in order, that is no Variable."""
    for atom in atoms:
        for term in atom.terms:
            if isinstance(term, Variable):
                continue
            if isinstance(term, Constant):
                raise ValidationError(f"TGDs are constant-free, found constant {term} in {atom}")
            raise ValidationError(f"TGD atoms may only mention variables, found {term!r} in {atom}")


def _decode(rule: CompiledRule) -> Tuple[Tuple[Atom, ...], Tuple[Atom, ...]]:
    """The body and head atoms of *rule*."""
    terms = [Variable(name) for name in rule.slot_names()]
    body = tuple(Atom(predicate, [terms[slot] for slot in slots]) for predicate, slots in rule.body)
    head = tuple(Atom(predicate, [terms[slot] for slot in slots]) for predicate, slots in rule.head)
    return body, head


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

    A TGD is a view of its :class:`~repro.core.rules.CompiledRule`
    (:attr:`rule`): built from atoms, it compiles them and keeps the compiled
    form only; :attr:`body` and :attr:`head` are decoded on first use.
    """

    __slots__ = ("rule", "body", "head")
    #: The compiled form: the one numbering of the rule's variables.
    rule: CompiledRule
    body: Tuple[Atom, ...]
    head: Tuple[Atom, ...]

    def __init__(
        self, body: Iterable[Atom], head: Iterable[Atom], label: Optional[str] = None
    ) -> None:
        body = tuple(body)
        head = tuple(head)
        if not body:
            raise ValidationError("a TGD must have a non-empty body")
        if not head:
            raise ValidationError("a TGD must have a non-empty head")
        _check_variables(body + head)
        rule = compile_rule(
            [(atom.predicate, map(_name, atom.terms)) for atom in body],
            [(atom.predicate, map(_name, atom.terms)) for atom in head],
            label,
        )
        object.__setattr__(self, "rule", rule)

    @classmethod
    def of(cls, rule: CompiledRule) -> "TGD":
        """The TGD whose compiled form is *rule*."""
        tgd = cls.__new__(cls)
        object.__setattr__(tgd, "rule", rule)
        return tgd

    @property
    def label(self) -> Optional[str]:
        """The rule's label (parsers and generators set one)."""
        return self.rule.label

    def __getattr__(self, name: str) -> Any:
        # Reached only while body and head are not decoded yet.
        if name == "body" or name == "head":
            body, head = _decode(self.rule)
            object.__setattr__(self, "body", body)
            object.__setattr__(self, "head", head)
            return body if name == "body" else head
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("TGD is immutable")

    def __reduce__(self) -> Tuple[Callable[[CompiledRule], "TGD"], Tuple[CompiledRule]]:
        # Rebuild through of() (immutability forbids the default slot-state
        # protocol); the parallel chase pickles TGDs to workers.
        return (TGD.of, (self.rule,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TGD) and self.rule == other.rule

    def __hash__(self) -> int:
        return self.rule._hash

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, TGD):
            return NotImplemented
        return (self.body, self.head) < (other.body, other.head)

    def __repr__(self) -> str:
        body = ", ".join(repr(a) for a in self.body)
        head = ", ".join(repr(a) for a in self.head)
        return f"{body} -> {head}"

    # ------------------------------------------------------------------ #
    # Variable sets

    def body_variables(self) -> FrozenSet[Variable]:
        """Return the variables occurring in the body."""
        return frozenset(map(Variable, self.rule.names))

    def head_variables(self) -> FrozenSet[Variable]:
        """Return the variables occurring in the head."""
        return self.frontier() | self.existential_variables()

    def frontier(self) -> FrozenSet[Variable]:
        """Return ``fr(σ)``: variables occurring both in the body and in the head."""
        rule = self.rule
        return frozenset(Variable(rule.names[slot]) for slot in rule.frontier())

    def existential_variables(self) -> FrozenSet[Variable]:
        """Return the existentially quantified variables (head-only variables)."""
        return frozenset(map(Variable, self.rule.existentials))

    def has_empty_frontier(self) -> bool:
        """Return ``True`` when no variable is shared between body and head."""
        return not self.rule.frontier()

    # ------------------------------------------------------------------ #
    # Classification

    def is_linear(self) -> bool:
        """Return ``True`` when the TGD has exactly one body atom (class ``L``)."""
        return len(self.rule.body) == 1

    def is_simple_linear(self) -> bool:
        """Return ``True`` for class ``SL``: linear with no repeated body variable."""
        return self.rule.is_simple_linear()

    def is_single_head(self) -> bool:
        """Return ``True`` when the head consists of a single atom."""
        return len(self.rule.head) == 1

    # ------------------------------------------------------------------ #
    # Schema

    def predicates(self) -> Set[Predicate]:
        """Return the predicates occurring in the TGD."""
        rule = self.rule
        return {predicate for predicate, _ in rule.body + rule.head}


class TGDSet:
    """An ordered, duplicate-free collection of TGDs with schema bookkeeping.

    The set holds compiled rules (:attr:`rules`), which is what the checkers
    read.  The :class:`TGD` views are built the first time the set is
    iterated and kept, so every iteration yields the same objects.
    """

    def __init__(self, tgds: Iterable[TGD] = ()) -> None:
        self._rules: List[CompiledRule] = []
        self._seen: Set[CompiledRule] = set()
        self._views: List[TGD] = []  # the views of the first len(_views) rules
        #: The schema :func:`~repro.core.parser.parse_rules` declared while
        #: reading exactly these rules; ``None`` once the set changes.
        self._declared: Optional[Schema] = None
        for tgd in tgds:
            self.add(tgd)

    def add(self, tgd: TGD) -> bool:
        """Add *tgd* unless already present; return ``True`` when it was added."""
        viewed = len(self._views) == len(self._rules)
        if not self.add_rule(tgd.rule):
            return False
        if viewed:
            self._views.append(tgd)
        return True

    def add_rule(self, rule: CompiledRule) -> bool:
        """Add the compiled *rule* unless already present; return ``True`` when it was added."""
        seen = self._seen
        size = len(seen)
        seen.add(rule)  # one hash call where `in` and add would make two
        if len(seen) == size:
            return False
        self._rules.append(rule)
        self._declared = None
        return True

    def __iter__(self) -> Iterator[TGD]:
        views, rules = self._views, self._rules
        if len(views) < len(rules):
            views.extend(map(TGD.of, rules[len(views) :]))
        return iter(views)

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, tgd: object) -> bool:
        return isinstance(tgd, TGD) and tgd.rule in self._seen

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TGDSet):
            return NotImplemented
        return self._seen == other._seen

    def __repr__(self) -> str:
        return f"TGDSet({len(self)} TGDs)"

    @property
    def tgds(self) -> Tuple[TGD, ...]:
        """Return the TGDs in insertion order."""
        return tuple(self)

    @property
    def rules(self) -> Tuple[CompiledRule, ...]:
        """Return the compiled rules in insertion order."""
        return tuple(self._rules)

    def schema(self) -> Schema:
        """Return ``sch(Σ)``: the schema of the predicates occurring in the set."""
        if self._declared is not None:
            return self._declared.copy()
        schema = Schema()
        add = schema.add
        for rule in self._rules:
            for predicate, _ in rule.body + rule.head:
                add(predicate)
        return schema

    def is_linear(self) -> bool:
        """Return ``True`` when every TGD is linear."""
        return all(len(rule.body) == 1 for rule in self._rules)

    def is_simple_linear(self) -> bool:
        """Return ``True`` when every TGD is simple-linear."""
        return all(rule.is_simple_linear() for rule in self._rules)

    def require_linear(self) -> "TGDSet":
        """Return ``self`` if every TGD is linear; raise :class:`NotLinearError` otherwise."""
        for rule in self._rules:
            if len(rule.body) != 1:
                raise NotLinearError(f"TGD {TGD.of(rule)!r} is not linear")
        return self

    def require_simple_linear(self) -> "TGDSet":
        """Return ``self`` if every TGD is simple-linear; raise otherwise."""
        for rule in self._rules:
            if not rule.is_simple_linear():
                raise NotSimpleLinearError(f"TGD {TGD.of(rule)!r} is not simple-linear")
        return self

    def by_body_predicate(self) -> Dict[Predicate, List[TGD]]:
        """Index linear TGDs by the predicate of their body atom.

        This is the index structure described in Section 5.4 that lets
        ``Applicable`` jump straight to the TGDs relevant to a shape.
        """
        self.require_linear()
        index: Dict[Predicate, List[TGD]] = {}
        for tgd in self:
            index.setdefault(tgd.rule.body[0][0], []).append(tgd)
        return index

    def max_arity(self) -> int:
        """Return the maximum predicate arity occurring in the set."""
        return self.schema().max_arity()
