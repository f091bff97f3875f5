"""The three chase engines: oblivious, semi-oblivious, and restricted.

All three share the same breadth-first skeleton (``chase_i`` in the paper's
notation): at round ``i`` the engine collects the triggers created by the
atoms added in round ``i-1``, decides which of them to *fire* according to
the variant's policy, and adds the results to the instance.  The variants
differ only in the firing policy:

* **oblivious** — fire every trigger ``(σ, h)`` at most once per full body
  homomorphism ``h``;
* **semi-oblivious** — fire at most once per frontier restriction
  ``h|fr(σ)`` (Definition 3.1 and Section 1.1);
* **restricted** — fire only when the head is not already satisfied by some
  extension of ``h|fr(σ)``.

Orthogonally to the variant, every engine is parameterised by

* a **trigger strategy** — ``"indexed"`` (default) runs the delta-driven
  :class:`~repro.chase.matching.IndexedTriggerSource`; ``"naive"`` keeps the
  seed enumeration as a reference implementation for differential testing;
* a **store** — any :class:`~repro.storage.atom_store.AtomStore`; by default
  an in-memory :class:`~repro.core.instances.Instance`, but the chase can
  run directly against a :class:`~repro.storage.database.RelationalDatabase`
  (``chase(..., backend="relational")``) or a persistent SQLite database
  (``backend="sqlite[:path]"``, see :mod:`repro.storage.sqlbackend`).

The engines run under a :class:`~repro.chase.result.ChaseLimits` budget and
report whether a fixpoint was reached.  They return a *lazy*
:class:`~repro.chase.result.ChaseResult`: the result keeps the live store,
and ``result.instance`` is only decoded into an in-memory ``Instance`` on
first read — ``chase(..., materialize=False)`` (CLI ``--no-materialize``)
returns without ever loading a store-backed fixpoint into RAM.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Set

from ..core.atoms import Atom
from ..core.instances import Database, Instance
from ..core.substitutions import has_homomorphism
from ..core.terms import Null, NullFactory, Term
from ..core.tgds import TGD, TGDSet
from ..obs.tracer import as_tracer
from .matching import STRATEGIES, has_homomorphism_indexed, make_trigger_source
from .result import ChaseLimits, ChaseResult
from .rounds import RoundOutcome, RoundStep, RuleRow, insert_sorted, run_rounds
from .triggers import FiringKey, FiringPlan

#: Store backends accepted by :func:`chase`.  ``"sqlite"`` chases into a
#: transient in-memory SQLite database; ``"sqlite:<path>"`` into a
#: persistent file that survives the process and can be reopened.
BACKENDS = ("instance", "relational", "sqlite")


def make_backend_store(backend: str, name: str = "chase"):
    """Build the :class:`~repro.storage.atom_store.AtomStore` named by *backend*.

    ``"instance"`` and ``"relational"`` build the in-memory backends;
    ``"sqlite"`` builds a transient in-memory SQLite store and
    ``"sqlite:<path>"`` a persistent file-backed one (the file is created on
    demand and reopened with its atoms when it already exists).  Unknown
    names and malformed sqlite specs raise ``ValueError``.
    """
    if backend == "instance":
        return Instance()
    if backend == "relational":
        from ..storage.database import RelationalDatabase

        return RelationalDatabase(name=name)
    if backend == "sqlite" or backend.startswith("sqlite:"):
        from ..storage.sqlbackend import MEMORY_PATH, SqliteAtomStore

        path = backend[len("sqlite:"):] if backend.startswith("sqlite:") else MEMORY_PATH
        if not path:
            raise ValueError(
                "malformed sqlite backend spec 'sqlite:': expected 'sqlite' "
                "(in-memory) or 'sqlite:<path>' (persistent file)"
            )
        return SqliteAtomStore(path=path, name=name)
    raise ValueError(
        f"unknown chase backend {backend!r}; expected one of {BACKENDS} "
        "(sqlite also accepts 'sqlite:<path>')"
    )


class ChaseEngine:
    """Base class implementing the breadth-first chase skeleton."""

    variant = "abstract"
    #: The witness a trigger is keyed by — its firing key and the scope of
    #: the nulls it invents (see :class:`~repro.chase.triggers.FiringPlan`).
    null_scope = "frontier"

    def __init__(
        self,
        limits: Optional[ChaseLimits] = None,
        on_limit: str = "return",
        strategy: str = "indexed",
    ):
        if on_limit not in ("return", "raise"):
            raise ValueError("on_limit must be 'return' or 'raise'")
        if strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
        self.limits = limits if limits is not None else ChaseLimits()
        self.on_limit = on_limit
        self.strategy = strategy

    # ------------------------------------------------------------------ #
    # Variant-specific policy

    def _should_fire(self, plan: FiringPlan, mapping: Mapping[Term, Term], store) -> bool:
        """Return ``True`` when the newly keyed match ``(plan.tgd, mapping)`` must fire."""
        return True

    # ------------------------------------------------------------------ #
    # The round step plugged into the shared driver (repro.chase.rounds)

    def run(self, database: Database, tgds: TGDSet, store=None, tracer=None) -> ChaseResult:
        """Run the chase of *database* with *tgds* under the configured budget.

        *store* is the :class:`~repro.storage.atom_store.AtomStore` the
        chase writes into; it defaults to a fresh in-memory
        :class:`Instance`.  The store is seeded with the database facts.
        The returned :class:`ChaseResult` keeps the live store and does
        *not* decode it into an in-memory instance — that happens lazily on
        the first ``result.instance`` read (``chase()`` does it eagerly
        unless called with ``materialize=False``).

        *tracer* (a :class:`repro.obs.Tracer`) receives one ``round`` event
        per delta round — including the final fixpoint-confirming
        enumeration, so summing ``fired``/``atoms_created`` over ``round``
        events reproduces the result totals exactly — and one
        ``rule_round`` event per (rule, round) that enumerated anything
        (both emitted by :func:`~repro.chase.rounds.run_rounds`).  Tracing
        never changes the result.
        """
        tracer = as_tracer(tracer)
        if store is None:
            store = Instance()
        insert_sorted(store, database.atoms())
        step = self._round_step(tuple(tgds), store, tracer)
        return run_rounds(step, store, self.limits, self.on_limit, self.variant, tracer)

    def _round_step(self, tgds, store, tracer) -> RoundStep:
        """The serial round step: this engine's trigger source and firing policy.

        One loop serves traced and untraced runs; the ``if traced`` blocks
        only add per-rule attribution (enumeration+processing time, null
        invention, atom creation) and read the clock around each trigger —
        nothing read there flows into any chase decision.
        """
        source = make_trigger_source(tgds, self.strategy)
        plans = [FiringPlan(tgd, index, self.null_scope) for index, tgd in enumerate(tgds)]
        null_factory = NullFactory()
        should_fire = self._should_fire
        fired_keys: Set[FiringKey] = set()
        frontier: Set[Atom] = set()
        traced = tracer.enabled

        def step(round_index: int, delta) -> RoundOutcome:
            nonlocal frontier
            if round_index == 0:
                matches = source.initial(store)
            else:
                matches = source.delta(store, frontier)
            new_atoms: Set[Atom] = set()
            considered = 0
            fired = 0
            # rule index -> [enumerated, fired, atoms, nulls-set, seconds]
            rule_stats: dict = {}
            stats: list = []
            last = tracer.now() if traced else 0.0
            for index, mapping in matches:
                if traced:
                    considered += 1
                    stats = rule_stats.get(index)
                    if stats is None:
                        stats = rule_stats[index] = [0, 0, 0, set(), 0.0]
                    stats[0] += 1
                plan = plans[index]
                key = plan.key(mapping)
                if key not in fired_keys:
                    fired_keys.add(key)
                    if should_fire(plan, mapping, store):
                        fired += 1
                        if traced:
                            stats[1] += 1
                        for atom in plan.result(key, null_factory):
                            if atom not in new_atoms and not store.has_atom(atom):
                                new_atoms.add(atom)
                                if traced:
                                    stats[2] += 1
                                    for term in atom.terms:
                                        if isinstance(term, Null):
                                            stats[3].add(term)
                if traced:
                    now = tracer.now()
                    stats[4] += now - last
                    last = now
            # The set itself is next round's frontier (the driver's sorted
            # *delta* holds the same atoms; the trigger sources want a set).
            frontier = new_atoms
            rule_rows = [
                RuleRow(rule, enumerated, rule_fired, atoms, len(nulls), seconds)
                for rule, (enumerated, rule_fired, atoms, nulls, seconds) in rule_stats.items()
            ]
            return RoundOutcome(considered, fired, new_atoms, rule_rows)

        return step


class ObliviousChase(ChaseEngine):
    """The oblivious chase: fire once per TGD and full body homomorphism."""

    variant = "oblivious"
    null_scope = "homomorphism"


class SemiObliviousChase(ChaseEngine):
    """The semi-oblivious chase: fire once per TGD and frontier assignment."""

    variant = "semi-oblivious"


class RestrictedChase(ChaseEngine):
    """The restricted (standard) chase: fire only when the head is not satisfied.

    The head-satisfaction check looks for a homomorphism from the head atoms
    into the current instance that agrees with ``h`` on the frontier; this is
    the potentially expensive check the paper contrasts with the
    semi-oblivious policy (Section 1.2).  Under the ``"indexed"`` strategy
    the check runs through the same position-index lookups as trigger
    enumeration instead of scanning whole predicate buckets.

    A restricted-chase trigger can become relevant again only with the same
    frontier assignment, and once satisfied the head stays satisfied (the
    chase is monotone), so memoising considered triggers on the
    semi-oblivious key is sound.

    Note: the restricted chase is order-sensitive in general.  This engine
    fires all applicable triggers of a round against the instance as it was
    at the *start* of the round, which corresponds to one standard "fair"
    execution; it is intended as a comparison baseline, not as a termination
    oracle.
    """

    variant = "restricted"

    def _should_fire(self, plan: FiringPlan, mapping: Mapping[Term, Term], store) -> bool:
        base = {variable: mapping[variable] for variable in plan.variables}
        if self.strategy == "naive":
            return not has_homomorphism(plan.tgd.head, store, base=base)
        # "indexed" satisfies the check through the store's position-index
        # lookups (point queries on the sqlite backend).
        return not has_homomorphism_indexed(plan.tgd.head, store, base=base)


#: Chase variant -> engine class (public so the parallel executor can reuse
#: the firing policies without re-implementing them).
ENGINE_CLASSES = {
    "oblivious": ObliviousChase,
    "semi-oblivious": SemiObliviousChase,
    "semi_oblivious": SemiObliviousChase,
    "restricted": RestrictedChase,
}


def resolve_engine_class(variant: str):
    """Return the engine class for *variant* or raise ``ValueError``."""
    try:
        return ENGINE_CLASSES[variant]
    except KeyError:
        raise ValueError(
            f"unknown chase variant {variant!r}; "
            f"expected one of {sorted(set(ENGINE_CLASSES))}"
        ) from None


def chase(
    database: Database,
    tgds: TGDSet,
    variant: str = "semi-oblivious",
    limits: Optional[ChaseLimits] = None,
    on_limit: str = "return",
    strategy: str = "indexed",
    backend: str = "instance",
    store=None,
    workers: int = 1,
    executor: str = "auto",
    materialize: bool = True,
    tracer=None,
    exchange: str = "coordinator",
) -> ChaseResult:
    """Run the chase of *database* with *tgds*.

    Parameters
    ----------
    variant:
        ``"oblivious"``, ``"semi-oblivious"`` (default), or ``"restricted"``.
    limits:
        Budget for the run; defaults to :class:`ChaseLimits` defaults.
    on_limit:
        ``"return"`` to return a non-terminated result when the budget is
        exhausted, ``"raise"`` to raise :class:`ChaseLimitExceeded`.
    strategy:
        ``"indexed"`` (default) for the delta-driven index-join trigger
        engine, ``"naive"`` for the seed reference enumeration,
        ``"sql-pushdown"`` to execute *whole rounds* as set-based SQL —
        one ``INSERT ... SELECT`` batch per (rule, delta round) with
        in-SQL null invention, and a single recursive CTE for linear rule
        sets (see :mod:`repro.storage.sqlbackend.pushdown`); it requires
        the sqlite backend.
    backend:
        ``"instance"`` (default) chases into an in-memory
        :class:`Instance`; ``"relational"`` directly into a
        :class:`~repro.storage.database.RelationalDatabase`; ``"sqlite"``
        into a transient SQLite database and ``"sqlite:<path>"`` into a
        persistent file that can be reopened and resumed (the store is
        available on ``ChaseResult.store``).
    store:
        An explicit :class:`~repro.storage.atom_store.AtomStore` to chase
        into; overrides *backend*.
    workers:
        ``1`` (default) runs the serial engine; ``> 1`` delegates to the
        hash-partitioned parallel executor
        (:func:`repro.chase.parallel.parallel_chase`), whose result is
        guaranteed identical to the serial one.
    executor:
        Worker backend for ``workers > 1``: ``"auto"``, ``"serial"``,
        ``"thread"``, or ``"process"`` (see :mod:`repro.chase.parallel`).
    exchange:
        Round protocol for ``workers > 1``: ``"coordinator"`` (default)
        merges every round through the coordinator; ``"shuffle"`` lets
        workers repartition results directly to peers between rounds
        (see :mod:`repro.chase.exchange`).  Ignored when ``workers == 1``.
    materialize:
        ``True`` (default) eagerly builds ``result.instance`` before
        returning — the historical behaviour.  ``False`` returns the lazy
        result as-is: counts and ``result.view`` read through the store,
        and ``result.instance`` only decodes the fixpoint into RAM if and
        when it is actually touched.  For store-backed runs this is what
        keeps larger-than-memory fixpoints out of the process.
    tracer:
        A :class:`repro.obs.Tracer` (or ``None``, the default).  When given,
        the run narrates itself — ``chase_start``, per-round and per-(rule,
        round) events, per-SQL-statement-family timings on the sqlite
        backend, and a ``chase_end`` with the result totals.  Tracing is
        observation only: the result is byte-identical with or without it.
    """
    engine_class = resolve_engine_class(variant)
    tracer = as_tracer(tracer)
    traced = tracer.enabled
    if traced:
        chase_started = tracer.now()
        tracer.emit(
            "chase_start",
            variant=variant,
            strategy=strategy,
            backend=backend if store is None else type(store).__name__,
            workers=workers,
            n_rules=len(tgds),
            n_database_atoms=len(database),
            rules=[repr(tgd) for tgd in tgds],
        )
    if workers != 1:
        from .parallel import parallel_chase

        result = parallel_chase(
            database,
            tgds,
            variant=variant,
            workers=workers,
            limits=limits,
            on_limit=on_limit,
            strategy=strategy,
            backend=backend,
            store=store,
            executor=executor,
            materialize=materialize,
            tracer=tracer,
            exchange=exchange,
        )
        if traced:
            _emit_chase_end(tracer, result, chase_started)
        return result
    if store is None:
        store = make_backend_store(backend)
    statement_metrics = None
    if traced:
        from ..obs.metrics import StatementMetrics
        from ..storage.sqlbackend import SqliteAtomStore

        if isinstance(store, SqliteAtomStore):
            statement_metrics = StatementMetrics()
            store.set_statement_metrics(statement_metrics)
    if strategy == "sql-pushdown":
        from ..storage.sqlbackend import SqliteAtomStore
        from ..storage.sqlbackend.pushdown import PushdownExecutor

        if not isinstance(store, SqliteAtomStore):
            raise ValueError(
                "strategy='sql-pushdown' executes whole chase rounds inside "
                "SQLite and requires the sqlite backend "
                "(backend='sqlite[:path]' or an explicit SqliteAtomStore "
                "store)"
            )
        engine = PushdownExecutor(variant=variant, limits=limits, on_limit=on_limit)
    else:
        engine = engine_class(limits=limits, on_limit=on_limit, strategy=strategy)
    try:
        result = engine.run(database, tgds, store=store, tracer=tracer)
    finally:
        # Persistent stores (sqlite) batch writes in one transaction; commit
        # even when the run raises (on_limit='raise'), or the interrupted
        # prefix would roll back and the file could not be resumed.
        flush = getattr(store, "flush", None)
        if flush is not None:
            flush()
        if statement_metrics is not None:
            store.set_statement_metrics(None)
    if materialize:
        result.materialize()
    if traced:
        _emit_sql_families(tracer, statement_metrics)
        _emit_chase_end(tracer, result, chase_started)
    return result


def _emit_sql_families(tracer, statement_metrics) -> None:
    """Emit one ``sql_family`` event per statement family that ran."""
    if statement_metrics is None:
        return
    from ..obs.metrics import sql_family_stats

    for stats in sql_family_stats(statement_metrics.registry.snapshot()):
        tracer.emit("sql_family", **stats)


def _emit_chase_end(tracer, result: ChaseResult, started: float) -> None:
    tracer.emit(
        "chase_end",
        terminated=result.terminated,
        stop_reason=result.stop_reason,
        rounds=result.rounds,
        triggers_fired=result.triggers_fired,
        atoms_created=result.atoms_created,
        instance_size=result.size(),
        dur=round(tracer.now() - started, 9),
    )


def satisfies(instance: Instance, tgds: Iterable[TGD]) -> bool:
    """Return ``True`` when *instance* satisfies every TGD of *tgds* (``I |= Σ``)."""
    from ..core.substitutions import homomorphisms

    for tgd in tgds:
        for body_hom in homomorphisms(tgd.body, instance):
            base = {variable: body_hom[variable] for variable in tgd.frontier()}
            if not has_homomorphism(tgd.head, instance, base=base):
                return False
    return True
