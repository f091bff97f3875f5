"""Terms: constants, labeled nulls, and variables.

The paper (Section 2) considers three disjoint countably infinite sets:
constants ``C``, labeled nulls ``N``, and variables ``V``.  Constants appear
in databases, nulls are invented by the chase as witnesses for existentially
quantified variables, and variables appear in TGDs.

All three classes are immutable and hashable, so they can be used freely as
dictionary keys and set members (the chase and the homomorphism machinery
rely on this heavily).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence, Union


class Term:
    """Abstract base class of :class:`Constant`, :class:`Null`, :class:`Variable`."""

    __slots__ = ("name", "_hash")

    def __init__(self, name):
        if not isinstance(name, str) or not name:
            raise TypeError(f"term name must be a non-empty string, got {name!r}")
        object.__setattr__(self, "name", name)
        # Cached like Atom._hash: the chase hashes terms (set members, dict
        # keys) orders of magnitude more often than it creates them.
        object.__setattr__(self, "_hash", hash((type(self).__name__, name)))

    def __setattr__(self, key, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # Reconstruct through __init__: the default slot-state protocol would
        # call __setattr__, which immutability forbids.  Picklability is what
        # lets the parallel chase ship atoms to process workers.
        return (type(self), (self.name,))

    def __eq__(self, other):
        return type(self) is type(other) and self.name == other.name

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        return (type(self).__name__, self.name) < (type(other).__name__, other.name)

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"

    def __str__(self):
        return self.name


class Constant(Term):
    """A database constant (an element of ``C``)."""

    __slots__ = ()


class Null(Term):
    """A labeled null (an element of ``N``) invented by the chase."""

    __slots__ = ()

    def __str__(self):
        return f"_:{self.name}"


class Variable(Term):
    """A first-order variable (an element of ``V``) used inside TGDs."""

    __slots__ = ()

    def __str__(self):
        return f"?{self.name}"


GroundTerm = Union[Constant, Null]


def is_constant(term):
    """Return ``True`` when *term* is a :class:`Constant`."""
    return isinstance(term, Constant)


def is_null(term):
    """Return ``True`` when *term* is a :class:`Null`."""
    return isinstance(term, Null)


def is_variable(term):
    """Return ``True`` when *term* is a :class:`Variable`."""
    return isinstance(term, Variable)


def is_ground(term):
    """Return ``True`` when *term* is a constant or a null (i.e., not a variable)."""
    return isinstance(term, (Constant, Null))


def constants(names):
    """Build a tuple of :class:`Constant` from an iterable of names."""
    return tuple(Constant(str(name)) for name in names)


def variables(names):
    """Build a tuple of :class:`Variable` from an iterable of names."""
    return tuple(Variable(str(name)) for name in names)


#: The empty digest state every null name copies: cheaper than a new hasher.
_NULL_DIGEST = hashlib.blake2b(digest_size=9)


def null_name(prefix, rendered_key):
    """Return the content-addressed null name for the key whose ``repr`` is
    *rendered_key*.  The one place a name is derived: :class:`NullFactory`
    and the pushdown executor's per-rule mint functions both end here."""
    digest = _NULL_DIGEST.copy()
    digest.update(rendered_key.encode("utf-8"))
    return f"{prefix}_{digest.hexdigest()}"


class NullKeyRenderer:
    """Renders one rule's null keys ``(rule, witness, variable)`` as ``repr`` does.

    *witness* is the tuple of ``(Variable, image)`` pairs the chase keys its
    nulls by (Definition 3.1).  The rule's own part is rendered once here, so
    a name costs a C-level ``repr`` per image, not a ``Term.__repr__`` per term.
    """

    __slots__ = ("_head", "_opens", "_close")

    def __init__(self, rule: int, witness_names: Sequence[str]):
        self._head = f"({rule}, ("
        self._opens = tuple(f"(Variable({name!r}), " for name in witness_names)
        # repr() of a one-element tuple carries a trailing comma.
        self._close = ",), " if len(self._opens) == 1 else "), "

    def render(self, images: Iterable[Term], variable: str) -> str:
        """Return exactly ``repr((rule, witness, variable))`` for the witness
        pairing the renderer's variables with the leading *images*."""
        pairs = [
            f"{opening}{type(image).__name__}({image.name!r}))"
            for opening, image in zip(self._opens, images)
        ]
        return f"{self._head}{', '.join(pairs)}{self._close}{variable!r})"

    def template(self, variable: str) -> str:
        """:meth:`render` for *variable* as a ``%``-format with one ``%s`` per
        witness image: ``template % image_reprs`` is the key's ``repr`` when
        *image_reprs* are the images' ``repr``s, already rendered."""
        head, close, name, *opens = (
            part.replace("%", "%%")
            for part in (self._head, self._close, repr(variable), *self._opens)
        )
        pairs = ", ".join(f"{opening}%s)" for opening in opens)
        return f"{head}{pairs}{close}{name})"


class NullFactory:
    """Deterministic factory of labeled nulls.

    The semi-oblivious chase names each invented null after the trigger that
    created it (Definition 3.1): the null for the existential variable ``x``
    of TGD ``sigma`` under the frontier assignment ``h|fr(sigma)`` is written
    ``⊥^x_{sigma, h|fr}``.  This factory reproduces that behaviour: asking
    twice for the same key returns the *same* null object, which is what
    makes the semi-oblivious chase apply each TGD at most once per frontier
    witness.

    Keyed nulls are *content-addressed*: the name is derived from the key
    itself rather than from a creation counter, so two chase runs that invent
    the same witnesses produce identically named nulls regardless of the
    order in which triggers were enumerated.  This is what lets the
    delta-driven trigger engine (and any future parallel/sharded chase) be
    compared atom-for-atom against the naive reference chase.
    """

    def __init__(self, prefix="n"):
        self._prefix = prefix
        self._by_key = {}
        self._counter = 0

    def __len__(self):
        return self._counter

    def fresh(self):
        """Return a brand-new null, never seen before and not keyed."""
        self._counter += 1
        return Null(f"{self._prefix}{self._counter}")

    def for_key(self, key):
        """Return the null associated with *key*, creating it on first use.

        The null's name is a stable digest of *key*, so it does not depend on
        how many nulls the factory has produced before.  Keys must have a
        deterministic ``repr`` (tuples of terms, strings, and ints do).
        """
        return self.for_rendered_key(repr(key))

    def for_rendered_key(self, rendered_key):
        """:meth:`for_key` on a key's ``repr`` (see :class:`NullKeyRenderer`)."""
        null = self._by_key.get(rendered_key)
        if null is None:
            null = Null(null_name(self._prefix, rendered_key))
            self._by_key[rendered_key] = null
            # __len__ counts keyed nulls too (digest names never collide
            # with the counter-named fresh() nulls).
            self._counter += 1
        return null
