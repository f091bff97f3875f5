"""Chase run results and limits.

Since the out-of-core PR, :class:`ChaseResult` is a *lazy view* over the
store the chase ran against: the result keeps the live
:class:`~repro.storage.atom_store.AtomStore` and only builds an in-memory
:class:`~repro.core.instances.Instance` when :attr:`ChaseResult.instance`
is first read (or :meth:`ChaseResult.materialize` is called).  A chase into
a disk-resident SQLite file can therefore finish, report its counts, and be
inspected through :attr:`ChaseResult.view` without the fixpoint ever being
loaded into RAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..core.atoms import Atom
from ..core.instances import Instance


@dataclass(frozen=True)
class ChaseLimits:
    """Budget for a chase run.

    The semi-oblivious chase may legitimately be infinite, so every engine in
    this package runs under a budget.  ``max_atoms`` bounds the size of the
    produced instance (the counter used by the materialization-based
    termination checker); ``max_rounds`` bounds the number of breadth-first
    rounds (``chase_i`` in the paper's notation).
    """

    max_atoms: Optional[int] = 100_000
    max_rounds: Optional[int] = None

    def __post_init__(self) -> None:
        for name, value in (("max_atoms", self.max_atoms), ("max_rounds", self.max_rounds)):
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0 (or None for unlimited), got {value}")

    def atom_budget_exceeded(self, atom_count: int) -> bool:
        """Return ``True`` when *atom_count* exceeds the atom budget."""
        return self.max_atoms is not None and atom_count > self.max_atoms

    def round_budget_exceeded(self, round_count: int) -> bool:
        """Return ``True`` when *round_count* exceeds the round budget."""
        return self.max_rounds is not None and round_count > self.max_rounds


class ChaseResult:
    """Outcome of a chase run — a lazy view over the store it produced.

    Attributes
    ----------
    store:
        The :class:`~repro.storage.atom_store.AtomStore` the chase
        materialised into (the instance itself for the default in-memory
        backend, the SQLite store otherwise).
    terminated:
        ``True`` when a fixpoint was reached within the budget.
    rounds:
        Number of breadth-first rounds executed.
    atoms_created:
        Number of atoms added on top of the input database.
    triggers_fired:
        Number of triggers whose result was added to the instance.
    stop_reason:
        ``"fixpoint"``, ``"max_atoms"``, or ``"max_rounds"``.

    :attr:`instance` is a *cached property*: the first read materialises the
    store into an in-memory :class:`Instance` (the identity for the default
    backend, an :meth:`InstanceView.to_instance` decode for store-backed
    runs) and every later read returns that same object.  Everything that
    only needs counts or a scan — :meth:`size`, ``len()``,
    :meth:`iter_atoms`, :attr:`view` — reads through the store protocol
    instead, so a ``materialize=False`` chase into a disk-resident store
    never has to fit its fixpoint in RAM.
    """

    __slots__ = (
        "store",
        "terminated",
        "rounds",
        "atoms_created",
        "triggers_fired",
        "stop_reason",
        "_instance",
    )

    def __init__(
        self,
        terminated: bool,
        rounds: int = 0,
        atoms_created: int = 0,
        triggers_fired: int = 0,
        stop_reason: str = "fixpoint",
        store: Optional[object] = None,
        instance: Optional[Instance] = None,
    ):
        if store is None and instance is None:
            raise ValueError("ChaseResult needs a store (or a pre-built instance)")
        self.terminated = terminated
        self.rounds = rounds
        self.atoms_created = atoms_created
        self.triggers_fired = triggers_fired
        self.stop_reason = stop_reason
        self.store = store if store is not None else instance
        self._instance = instance
        if instance is None and isinstance(store, Instance):
            # The in-memory backend *is* an instance: nothing to materialise.
            self._instance = store

    # ------------------------------------------------------------------ #
    # Lazy materialization

    @property
    def instance(self) -> Instance:
        """The chase result as an in-memory :class:`Instance` (cached).

        For store-backed runs the first read decodes every stored atom into
        RAM; use :meth:`size`, :meth:`iter_atoms`, or :attr:`view` when the
        counts or a streamed scan are enough.
        """
        if self._instance is None:
            self._instance = self.view.to_instance()
        return self._instance

    @property
    def is_materialized(self) -> bool:
        """``True`` when :attr:`instance` has already been built (or the
        backend is the in-memory instance itself)."""
        return self._instance is not None

    def materialize(self) -> Instance:
        """Force (and return) the in-memory :class:`Instance` — the explicit
        spelling of reading :attr:`instance`."""
        return self.instance

    # ------------------------------------------------------------------ #
    # Store-protocol reads (never materialise)

    @property
    def view(self):
        """A read-only :class:`~repro.storage.atom_store.InstanceView` over
        the live store — the instance-shaped surface without the copy."""
        from ..storage.atom_store import InstanceView

        return InstanceView(self.store)

    def iter_atoms(self) -> Iterator[Atom]:
        """Stream the result's atoms from the store (no ordering guarantee)."""
        return self.store.iter_atoms()

    def size(self) -> int:
        """Return the number of atoms in the produced instance.

        Answered from the store's count — identical to ``len(instance)``
        but never triggers materialization.
        """
        return self.store.atom_count()

    def __len__(self) -> int:
        return self.size()

    def __repr__(self):
        status = self.stop_reason if not self.terminated else "fixpoint"
        materialized = "materialized" if self.is_materialized else "lazy"
        return (
            f"ChaseResult({status}, {self.size()} atoms, rounds={self.rounds}, "
            f"{materialized})"
        )
