"""The reference interpreter for simplification — the differential oracle.

This is the per-pair implementation of Definition 3.5 and Algorithm 2 that
``repro.simplification.plans`` replaced: every (rule, shape) pair builds the
canonical atom, matches the body against it, reads the ``h``-specialization
off the match, applies it as a substitution and simplifies the resulting
atoms, and the head shapes are re-read from the simplified predicates' names.
It is slow and obviously faithful to the paper's text, which is the point:
``tests/property/test_simplification_oracle.py`` holds the compiled plans to
it.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.atoms import Atom, match_atom
from repro.core.predicates import Predicate
from repro.core.terms import Constant, Term, Variable
from repro.core.tgds import TGD, TGDSet
from repro.exceptions import NotLinearError
from repro.simplification.shapes import Shape, resolve_shapes, simplify_atom


class Specialization:
    """A specialization ``f`` of a variable tuple, applied as a substitution."""

    __slots__ = ("_mapping", "_variables")

    def __init__(self, variables: Sequence[Variable], mapping: Dict[Variable, Variable]):
        self._variables = tuple(variables)
        self._mapping = dict(mapping)
        self._validate()

    def _validate(self) -> None:
        ordered = list(dict.fromkeys(self._variables))  # distinct, in first-occurrence order
        if not ordered:
            # The empty tuple (a nullary body atom) has exactly one
            # specialization: the empty function.
            if self._mapping:
                raise ValueError("the empty specialization cannot map any variable")
            return
        first = ordered[0]
        if self._mapping.get(first, first) != first:
            raise ValueError("a specialization must map the first variable to itself")
        allowed_images = {first}
        for variable in ordered[1:]:
            image = self._mapping.get(variable, variable)
            if image != variable and image not in allowed_images:
                raise ValueError(
                    f"invalid specialization: {variable} may only map to an earlier image "
                    f"or to itself, got {image}"
                )
            allowed_images.add(image)

    def __call__(self, variable: Variable) -> Variable:
        return self._mapping.get(variable, variable)

    def __eq__(self, other):
        if not isinstance(other, Specialization):
            return NotImplemented
        return self._variables == other._variables and self.images() == other.images()

    def __hash__(self):
        return hash((self._variables, self.images()))

    def __repr__(self):
        pairs = ", ".join(f"{v}->{self(v)}" for v in dict.fromkeys(self._variables))
        return f"Specialization({pairs})"

    @property
    def variables(self) -> Tuple[Variable, ...]:
        """The original variable tuple ``x̄`` (with possible repetitions)."""
        return self._variables

    def images(self) -> Tuple[Variable, ...]:
        """Return ``f(x̄)``: the image tuple, position by position."""
        return tuple(self(v) for v in self._variables)

    def is_identity(self) -> bool:
        """Return ``True`` when every variable maps to itself."""
        return all(self(v) == v for v in self._variables)

    def apply_to_atom(self, atom: Atom) -> Atom:
        """Apply the specialization to an atom (non-tuple variables stay put)."""
        return Atom(atom.predicate, tuple(self(t) if isinstance(t, Variable) else t for t in atom.terms))

    def apply_to_atoms(self, atoms: Sequence[Atom]) -> Tuple[Atom, ...]:
        """Apply the specialization to a sequence of atoms."""
        return tuple(self.apply_to_atom(atom) for atom in atoms)


def identity_specialization(variables: Sequence[Variable]) -> Specialization:
    """Return the identity specialization of *variables*."""
    return Specialization(variables, {})


def enumerate_specializations(variables: Sequence[Variable]) -> Iterator[Specialization]:
    """Enumerate every specialization of a variable tuple.

    The enumeration walks the distinct variables in first-occurrence order;
    for each variable it either keeps it (a new block) or collapses it onto
    one of the earlier images.  For ``n`` distinct variables this yields
    Bell(``n``) specializations.
    """
    distinct = list(dict.fromkeys(variables))
    if not distinct:
        # Bell(0) = 1: the empty tuple has exactly one (empty) specialization.
        yield Specialization(variables, {})
        return

    def _extend(index: int, mapping: Dict[Variable, Variable], images: List[Variable]):
        if index == len(distinct):
            yield Specialization(variables, dict(mapping))
            return
        variable = distinct[index]
        # Option 1: keep the variable (opens a new block).
        mapping[variable] = variable
        images.append(variable)
        yield from _extend(index + 1, mapping, images)
        images.pop()
        # Option 2: collapse onto one of the earlier images.
        for image in list(dict.fromkeys(images)):
            mapping[variable] = image
            yield from _extend(index + 1, mapping, images)
        del mapping[variable]

    yield from _extend(0, {}, [])


def canonical_atom(shape: Shape) -> Atom:
    """Return the atom ``R(id(t̄))`` of ``DB[{shape}]`` with integer-named constants."""
    base = Predicate(shape.predicate_name, shape.arity)
    return Atom(base, tuple(Constant(str(i)) for i in shape.identifiers))


def h_specialization(body_atom: Atom, shape: Shape) -> Optional[Specialization]:
    """Return the ``h``-specialization of the body variables w.r.t. *shape*.

    ``h`` is the homomorphism from ``{R(x̄)}`` to ``{R(id(t̄))} ⊆ DB[{shape}]``,
    when it exists; the induced specialization maps ``xi`` and ``xj`` to the
    same (earliest) variable exactly when ``h(xi) = h(xj)``.  Returns ``None``
    when no homomorphism exists (the body atom repeats a variable across
    positions the shape declares distinct).
    """
    if shape.predicate_name != body_atom.predicate.name or shape.arity != body_atom.arity:
        return None
    target = canonical_atom(shape)
    assignment = match_atom(body_atom, target, None)
    if assignment is None:
        return None
    first_variable_for_image: Dict[Term, Variable] = {}
    mapping: Dict[Variable, Variable] = {}
    for term in body_atom.terms:
        if not isinstance(term, Variable):  # pragma: no cover - TGD bodies are variable-only
            continue
        image = assignment[term]
        representative = first_variable_for_image.setdefault(image, term)
        mapping[term] = representative
    return Specialization(body_atom.terms, mapping)


def linear_body(tgd: TGD) -> Atom:
    """Return the one body atom of a linear TGD; a non-linear TGD raises."""
    if not tgd.is_linear():
        raise NotLinearError(f"TGD {tgd!r} is not linear")
    return tgd.body[0]


def simplify_tgd_with(tgd: TGD, specialization: Specialization) -> TGD:
    """Return the simplification of a linear TGD induced by *specialization*."""
    body_atom = linear_body(tgd)
    specialized_body = specialization.apply_to_atom(body_atom)
    specialized_head = specialization.apply_to_atoms(tgd.head)
    simple_body = simplify_atom(specialized_body)
    simple_head = tuple(simplify_atom(atom) for atom in specialized_head)
    return TGD((simple_body,), simple_head, label=tgd.label)


def simplifications_of_tgd(tgd: TGD) -> Iterator[TGD]:
    """Enumerate ``simple(σ)``: one simplification per specialization of the body tuple."""
    body_atom = linear_body(tgd)
    for specialization in enumerate_specializations(body_atom.terms):
        yield simplify_tgd_with(tgd, specialization)


def static_simplification(tgds: TGDSet) -> TGDSet:
    """Return ``simple(Σ)`` for a set of linear TGDs.

    Warning: the result is exponential in the maximum arity; use
    :func:`repro.simplification.dynamic.dynamic_simplification` for anything
    beyond small schemas, as the paper does.
    """
    tgds.require_linear()
    result = TGDSet()
    for tgd in tgds:
        for simplified in simplifications_of_tgd(tgd):
            result.add(simplified)
    return result


@dataclass
class DynamicSimplificationResult:
    """Output of :func:`dynamic_simplification` with bookkeeping for experiments.

    Attributes
    ----------
    tgds:
        The set ``simple_D(Σ)`` of simple-linear TGDs.
    derived_shapes:
        ``Σ(shape(D))`` — every shape derived during the fixpoint.
    initial_shapes:
        ``shape(D)`` — the shapes contributed by the database.
    iterations:
        Number of fixpoint iterations executed (Algorithm 2's while loop).
    """

    tgds: TGDSet
    derived_shapes: Set[Shape]
    initial_shapes: Set[Shape]
    iterations: int


def applicable(shapes: Iterable[Shape], tgds: TGDSet, index: Optional[Dict[Predicate, List[TGD]]] = None) -> TGDSet:
    """``Applicable(Ŝ, Σ)``: simplified TGDs whose body shape belongs to *shapes*.

    For every linear TGD ``σ`` with body predicate ``R`` and every shape of
    ``R`` in *shapes*, there is at most one homomorphism from the body atom
    to the canonical shape atom; when it exists, its ``h``-specialization
    induces one simplification of ``σ``.
    """
    tgds.require_linear()
    if index is None:
        index = tgds.by_body_predicate()
    by_name: Dict[str, List[TGD]] = {}
    for predicate, rules in index.items():
        by_name.setdefault(predicate.name, []).extend(rules)

    result = TGDSet()
    for shape in shapes:
        for tgd in by_name.get(shape.predicate_name, ()):
            body_atom = linear_body(tgd)
            if body_atom.arity != shape.arity:
                continue
            specialization = h_specialization(body_atom, shape)
            if specialization is None:
                continue
            result.add(simplify_tgd_with(tgd, specialization))
    return result


def head_shapes(tgds: Iterable[TGD]) -> Set[Shape]:
    """Return the shapes occurring (as predicates) in the heads of simplified TGDs.

    Simplified TGDs use shape predicates of the form ``R__1_2_1``; this
    helper recovers the :class:`Shape` objects from the *original* atoms'
    structure: since the head atoms of a simplified TGD are already
    simplified (no repeated terms), the shape is re-read from the predicate
    name suffix.
    """
    result: Set[Shape] = set()
    for tgd in tgds:
        for atom in tgd.head:
            result.add(shape_from_simplified_predicate(atom.predicate))
    return result


def shape_from_simplified_predicate(predicate: Predicate) -> Shape:
    """Invert :meth:`Shape.as_predicate`: recover the shape from ``R__1_2_1``.

    The simplified predicate of a nullary shape is ``R__`` (empty suffix,
    empty identifier tuple).
    """
    name, separator, suffix = predicate.name.rpartition("__")
    if not separator:
        raise ValueError(f"{predicate.name!r} is not a simplified (shape) predicate name")
    identifiers = tuple(int(token) for token in suffix.split("_")) if suffix else ()
    return Shape(name, identifiers)


def dynamic_simplification(
    database_or_shapes,
    tgds: TGDSet,
) -> DynamicSimplificationResult:
    """``DynSimplification(D, Σ)``: compute ``simple_D(Σ)`` (Algorithm 2).

    Parameters
    ----------
    database_or_shapes:
        Either a :class:`~repro.core.instances.Database` (its shapes are
        computed directly), a set of :class:`Shape` (already computed, e.g.
        by one of the storage substrate's ``FindShapes`` implementations), or
        any object with a ``find_shapes()`` method.
    tgds:
        The set of linear TGDs ``Σ``.
    """
    tgds.require_linear()
    initial_shapes = resolve_shapes(database_or_shapes)
    index = tgds.by_body_predicate() if len(tgds) else {}

    known_shapes: Set[Shape] = set(initial_shapes)
    simplified = TGDSet()
    iterations = _fixpoint(set(initial_shapes), known_shapes, simplified, tgds, index)

    return DynamicSimplificationResult(
        tgds=simplified,
        derived_shapes=known_shapes,
        initial_shapes=set(initial_shapes),
        iterations=iterations,
    )


def _fixpoint(
    delta: Set[Shape],
    known_shapes: Set[Shape],
    simplified: TGDSet,
    tgds: TGDSet,
    index: Dict[Predicate, List[TGD]],
) -> int:
    """Run Algorithm 2's while loop in place; return the iteration count.

    *known_shapes* and *simplified* are mutated; *delta* is the seed frontier
    (shapes not yet processed by ``Applicable``).
    """
    iterations = 0
    while delta:
        iterations += 1
        new_rules = applicable(delta, tgds, index=index)
        newly_added = [rule for rule in new_rules if simplified.add(rule)]
        produced = head_shapes(newly_added)
        delta = produced - known_shapes
        known_shapes |= delta
    return iterations
