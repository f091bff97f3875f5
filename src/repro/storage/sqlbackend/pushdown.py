"""The ``sql-pushdown`` execution layer: whole chase rounds as compiled SQL.

The trigger-source strategies match in Python, invent nulls one trigger at
a time, and hand head atoms back to the store.  This module pushes the
whole loop into SQLite: each (rule, delta round) pair executes as one
set-based ``INSERT ... SELECT`` batch, with

* the semi-naive discipline expressed as ``seq`` watermark predicates in the
  ``WHERE`` clause (the seed slot reads only the previous round's delta,
  earlier slots only pre-delta atoms, so every homomorphism is enumerated
  exactly once across slots);
* firing-key dedup as an anti-join against a per-rule ``pd_fired_*`` temp
  table (the SQL rendering of the engines' ``fired_keys`` memo);
* the restricted variant's "no satisfying head exists" check as a correlated
  ``NOT EXISTS`` over the head join, evaluated against the round-start
  snapshot exactly like the serial engine's buffered-round semantics;
* null invention as a SQL expression — :data:`SKOLEM_FUNCTION` is a
  deterministic UDF computing the *same* content-addressed name
  :class:`~repro.core.terms.NullFactory` would, from the rule id and the
  witness bindings, so results stay byte-identical to the interpreted
  strategies.

Every program, linear or not, under every variant, runs the same way: the
batch above is a round step of :func:`repro.chase.rounds.run_rounds`, which
owns the budget, the trace events and the per-round flush.

Layering: this package must stay importable without :mod:`repro.chase`, so
chase-side classes (``ChaseResult``, ``ChaseLimits``) are imported inside
the functions that need them.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from ...core.atoms import Atom
from ...core.instances import Database
from ...core.predicates import Predicate
from ...core.terms import NullKeyRenderer, Term, Variable, null_name
from ...core.tgds import TGD
from ...obs.tracer import AnyTracer, as_tracer
from ..relation import NULL_MARKER, decode_value
from .store import SqliteAtomStore, _quote, table_name

if TYPE_CHECKING:
    from ...chase.result import ChaseLimits, ChaseResult
    from ...chase.rounds import Delta, RoundOutcome, RoundStep, RuleRow

#: Name of the deterministic null-inventing SQL function registered by
#: :func:`register_skolem_function`.
SKOLEM_FUNCTION = "repro_skolem"


def _sql_string(text: str) -> str:
    """Render *text* as a SQL string literal (single quotes doubled)."""
    return "'" + text.replace("'", "''") + "'"


def register_skolem_function(store: SqliteAtomStore, prefix: str = "n") -> None:
    """Register :data:`SKOLEM_FUNCTION` on *store*'s connection.

    ``repro_skolem(tgd_index, names_json, variable_name, *encoded_values)``
    returns the *encoded* null (``"_:" + name``) that
    :meth:`~repro.core.terms.NullFactory.for_key` would mint for the key
    ``(tgd_index, witness, variable_name)`` — where *witness* pairs the
    JSON-encoded variable names with the decoded column values.  The key is
    rendered and digested by the :mod:`repro.core.terms` functions the
    factory uses, which is what makes the whole strategy exact: a witness
    maps to the same null here and in the interpreted engines.
    """

    renderers: Dict[Tuple[int, str], NullKeyRenderer] = {}

    def skolem(
        tgd_index: int, names_json: str, variable_name: str, *encoded_values: str
    ) -> str:
        renderer = renderers.get((tgd_index, names_json))
        if renderer is None:
            renderer = NullKeyRenderer(int(tgd_index), json.loads(names_json))
            renderers[(tgd_index, names_json)] = renderer
        rendered = renderer.render(map(decode_value, encoded_values), variable_name)
        return NULL_MARKER + null_name(prefix, rendered)

    store.connection.create_function(SKOLEM_FUNCTION, -1, skolem, deterministic=True)


class CompiledRule:
    """Every compiled statement of one TGD under one chase variant.

    This is the statement cache the strategy runs on: all SQL text is
    rendered once (per seed slot, lazily) and reused every round with only
    the ``:delta_start`` / ``:round_start`` / ``:round_seq`` parameters
    changing, so sqlite3's per-connection prepared-statement cache keys on
    identical strings.

    Per round and seed slot the executor runs, in order:

    1. :meth:`stage` — ``INSERT INTO pd_stage_i SELECT DISTINCT <witness>``
       from the watermarked body join, anti-joined against ``pd_fired_i``;
    2. :meth:`record` — memoize the staged keys into ``pd_fired_i``
       (*before* the restricted check, matching the engines, which memoize
       a key even when its head turns out satisfied);
    3. :meth:`filter_unsatisfied` (restricted only) — copy into
       ``pd_fire_i`` the staged keys whose head has no homomorphic image in
       the round-start snapshot;
    4. the statements in :attr:`head_inserts` — one
       ``INSERT OR IGNORE ... SELECT`` per head atom, with frontier columns
       read from the key table and existentials minted by
       :data:`SKOLEM_FUNCTION`.
    """

    def __init__(self, tgd_index: int, tgd: TGD, variant: str, store: SqliteAtomStore) -> None:
        self.tgd_index = tgd_index
        self.tgd = tgd
        self.restricted = variant == "restricted"
        scope_all = variant == "oblivious"

        # Body layout: first-occurrence column per variable, equality
        # conditions for repeated occurrences.
        first_seen: Dict[Variable, str] = {}
        conditions: List[str] = []
        for slot, atom in enumerate(tgd.body):
            for position, term in enumerate(atom.terms):
                column = f"t{slot}.c{position}"
                if term in first_seen:
                    conditions.append(f"{column} = {first_seen[term]}")
                else:
                    first_seen[term] = column
        self._conditions = tuple(conditions)

        # The witness is the firing key *and* the null scope: the full
        # homomorphism for the oblivious chase, the frontier otherwise —
        # sorted by variable name, matching oblivious_key() /
        # frontier_assignment() in chase.triggers.
        pool = first_seen.keys() if scope_all else tgd.frontier()
        self.witness: Tuple[Variable, ...] = tuple(
            sorted(pool, key=lambda variable: variable.name)
        )
        self._witness_exprs = tuple(first_seen[v] for v in self.witness)
        self._names_json = json.dumps([v.name for v in self.witness])
        if self.witness:
            self._key_columns: Tuple[str, ...] = tuple(
                f"k{i}" for i in range(len(self.witness))
            )
        else:
            # Variable-free witness (e.g. a nullary body): a single
            # sentinel key row, so "fired once" is still representable.
            self._key_columns = ("k_sentinel",)
        self._key_of = {v: f"k{i}" for i, v in enumerate(self.witness)}

        self._stage = f"pd_stage_{tgd_index}"
        self._fired = f"pd_fired_{tgd_index}"
        self._firing = f"pd_fire_{tgd_index}"
        self._stage_sql_cache: Dict[int, str] = {}

        self._bind(store)
        self.firing_sql: Optional[str] = (
            self._compile_firing() if self.restricted else None
        )
        self.head_inserts: Tuple[Tuple[str, Predicate], ...] = tuple(
            self._compile_head_insert(store, atom) for atom in tgd.head
        )

    # ------------------------------------------------------------------ #
    # Compilation

    def _bind(self, store: SqliteAtomStore) -> None:
        """Create relations, join indexes, and this rule's temp tables."""
        for atom in self.tgd.body + self.tgd.head:
            store.create_relation(atom.predicate)
        # Join columns: any position (beyond the primary leading-column
        # index) holding a variable that occurs more than once in the body
        # participates in an equality join and gets a covering index.
        occurrences: Dict[Variable, int] = {}
        for atom in self.tgd.body:
            for term in atom.terms:
                occurrences[term] = occurrences.get(term, 0) + 1
        for atom in self.tgd.body:
            for position, term in enumerate(atom.terms):
                if position > 0 and occurrences.get(term, 0) > 1:
                    store._ensure_position_index(atom.predicate, position)
        if self.restricted:
            # The NOT EXISTS head probe correlates frontier columns.
            for atom in self.tgd.head:
                for position, term in enumerate(atom.terms):
                    if position > 0 and term in self._key_of:
                        store._ensure_position_index(atom.predicate, position)

        columns_ddl = ", ".join(f"{c} TEXT NOT NULL" for c in self._key_columns)
        unique = ", ".join(self._key_columns)
        store.bulk_apply(f"DROP TABLE IF EXISTS temp.{self._stage}", family="pushdown-ddl")
        store.bulk_apply(
            f"CREATE TEMP TABLE {self._stage} ({columns_ddl})", family="pushdown-ddl"
        )
        store.bulk_apply(f"DROP TABLE IF EXISTS temp.{self._fired}", family="pushdown-ddl")
        store.bulk_apply(
            f"CREATE TEMP TABLE {self._fired} ({columns_ddl}, UNIQUE({unique}))",
            family="pushdown-ddl",
        )
        if self.restricted:
            store.bulk_apply(
                f"DROP TABLE IF EXISTS temp.{self._firing}", family="pushdown-ddl"
            )
            store.bulk_apply(
                f"CREATE TEMP TABLE {self._firing} ({columns_ddl})", family="pushdown-ddl"
            )

    def stage_sql(self, seed_slot: int) -> str:
        """The staging statement with *seed_slot* as the delta slot."""
        sql = self._stage_sql_cache.get(seed_slot)
        if sql is not None:
            return sql
        tables = [
            f"{_quote(table_name(atom.predicate.name))} AS t{slot}"
            for slot, atom in enumerate(self.tgd.body)
        ]
        conditions = list(self._conditions)
        for slot in range(len(self.tgd.body)):
            alias = f"t{slot}"
            if slot == seed_slot:
                # Only the previous round's delta seeds this slot; the
                # upper bound excludes atoms this round already inserted
                # (the engines buffer a round's heads until it ends).
                conditions.append(f"{alias}.seq > :delta_start")
                conditions.append(f"{alias}.seq <= :round_start")
            elif slot < seed_slot:
                conditions.append(f"{alias}.seq <= :delta_start")
            else:
                conditions.append(f"{alias}.seq <= :round_start")
        if self.witness:
            select = ", ".join(self._witness_exprs)
            anti = " AND ".join(
                f"f.{column} = {expression}"
                for column, expression in zip(self._key_columns, self._witness_exprs)
            )
            conditions.append(
                f"NOT EXISTS (SELECT 1 FROM {self._fired} AS f WHERE {anti})"
            )
        else:
            select = "'0'"
            conditions.append(f"NOT EXISTS (SELECT 1 FROM {self._fired})")
        sql = (
            f"INSERT INTO {self._stage} ({', '.join(self._key_columns)}) "
            f"SELECT DISTINCT {select} FROM {', '.join(tables)} "
            f"WHERE {' AND '.join(conditions)}"
        )
        self._stage_sql_cache[seed_slot] = sql
        return sql

    def _compile_firing(self) -> str:
        """Restricted-variant filter: keys whose head is *not* yet satisfied.

        One correlated ``NOT EXISTS`` over the join of all head atoms:
        frontier positions equate to the staged key columns, repeated
        existentials equate to their first occurrence, and every head alias
        is pinned to the round-start snapshot (``seq <= :round_start``) —
        the store state the serial engine's ``_should_fire`` sees, since it
        buffers the round's new atoms outside the store.
        """
        aliases: List[str] = []
        conditions: List[str] = []
        existential_seen: Dict[Variable, str] = {}
        for index, atom in enumerate(self.tgd.head):
            alias = f"h{index}"
            aliases.append(f"{_quote(table_name(atom.predicate.name))} AS {alias}")
            conditions.append(f"{alias}.seq <= :round_start")
            for position, term in enumerate(atom.terms):
                column = f"{alias}.c{position}"
                if term in self._key_of:
                    conditions.append(f"{column} = w.{self._key_of[term]}")
                elif term in existential_seen:
                    conditions.append(f"{column} = {existential_seen[term]}")
                else:
                    existential_seen[term] = column
        columns = ", ".join(self._key_columns)
        return (
            f"INSERT INTO {self._firing} ({columns}) "
            f"SELECT {columns} FROM {self._stage} AS w "
            f"WHERE NOT EXISTS (SELECT 1 FROM {', '.join(aliases)} "
            f"WHERE {' AND '.join(conditions)})"
        )

    def head_expr(self, term: Term) -> str:
        """SQL expression producing *term*'s encoded value for a key row ``w``."""
        column = self._key_of.get(term)
        if column is not None:
            return f"w.{column}"
        witness_args = "".join(f", w.{c}" for c in self._key_of.values())
        return (
            f"{SKOLEM_FUNCTION}({self.tgd_index}, "
            f"{_sql_string(self._names_json)}, {_sql_string(term.name)}"
            f"{witness_args})"
        )

    def _compile_head_insert(self, store: SqliteAtomStore, atom: Atom) -> Tuple[str, Predicate]:
        expressions = [self.head_expr(term) for term in atom.terms] or ["'0'"]
        columns = store._columns(atom.predicate.arity)
        source = self._firing if self.restricted else self._stage
        sql = (
            f"INSERT OR IGNORE INTO {_quote(table_name(atom.predicate.name))} "
            f"({', '.join(columns)}, seq) "
            f"SELECT {', '.join(expressions)}, :round_seq FROM {source} AS w"
        )
        return sql, atom.predicate

    # ------------------------------------------------------------------ #
    # Round execution

    def stage(self, store: SqliteAtomStore, seed_slot: int, delta_start: int, round_start: int) -> int:
        """Stage this (rule, slot)'s new firing keys; return how many."""
        store.bulk_apply(f"DELETE FROM {self._stage}", family="pushdown-stage")
        return store.bulk_apply(
            self.stage_sql(seed_slot),
            {"delta_start": delta_start, "round_start": round_start},
            family="pushdown-stage",
        )

    @property
    def record_sql(self) -> str:
        """The memoization statement (staged keys into the fired-key memo)."""
        return f"INSERT OR IGNORE INTO {self._fired} SELECT * FROM {self._stage}"

    def record(self, store: SqliteAtomStore) -> None:
        """Memoize the staged keys so later rounds never re-fire them."""
        store.bulk_apply(self.record_sql, family="pushdown-record")

    def filter_unsatisfied(self, store: SqliteAtomStore, round_start: int) -> int:
        """Restricted check; returns the number of keys that actually fire."""
        store.bulk_apply(f"DELETE FROM {self._firing}", family="pushdown-firing")
        return store.bulk_apply(
            self.firing_sql, {"round_start": round_start}, family="pushdown-firing"
        )


class PushdownExecutor:
    """Run the chase as compiled set-based SQL inside a sqlite store.

    Same configuration surface as :class:`~repro.chase.engine.ChaseEngine`
    (*variant*, *limits*, *on_limit*) and the same result contract —
    termination verdict, round/trigger/atom counts, and the instance are
    byte-identical to the interpreted engines, null names included.  The
    difference is purely *how* a round runs: one statement batch per (rule,
    delta slot), no per-binding Python.

    Every program takes the same path, whatever its rule shapes and variant:
    :meth:`_round_step` under :func:`~repro.chase.rounds.run_rounds`.
    """

    VARIANTS = ("oblivious", "semi-oblivious", "restricted")

    def __init__(
        self,
        variant: str = "semi-oblivious",
        limits: Optional["ChaseLimits"] = None,
        on_limit: str = "return",
    ) -> None:
        if variant not in self.VARIANTS:
            raise ValueError(
                f"unknown chase variant {variant!r}; expected one of {self.VARIANTS}"
            )
        if on_limit not in ("return", "raise"):
            raise ValueError(f"on_limit must be 'return' or 'raise', got {on_limit!r}")
        from ...chase.result import ChaseLimits

        self.variant = variant
        self.limits = limits if limits is not None else ChaseLimits()
        self.on_limit = on_limit

    def run(
        self,
        database: Database,
        tgds: Sequence[TGD],
        store: SqliteAtomStore,
        tracer: Optional[AnyTracer] = None,
    ) -> "ChaseResult":
        """Chase *database* with *tgds* into *store*; return a ChaseResult.

        *tracer* (a :class:`repro.obs.Tracer`) makes the run emit the same
        ``round``/``rule_round`` event stream as the interpreted engines —
        totals sum exactly to the result's counters.  Pushdown rounds run
        as set-based statements, so ``rule_round`` events report
        ``nulls_invented`` as 0: that attribution only exists in the
        interpreted engines.  Tracing never changes the result.
        """
        from ...chase.rounds import run_rounds, seed_store

        if not isinstance(store, SqliteAtomStore):
            raise ValueError(
                "the sql-pushdown strategy executes inside SQLite and "
                "requires a SqliteAtomStore"
            )
        active_tracer = as_tracer(tracer)
        seed_store(store, database)
        register_skolem_function(store)
        rules = [
            CompiledRule(index, tgd, self.variant, store)
            for index, tgd in enumerate(tgds)
        ]
        # Like the engines' ``run``, the final commit is the caller's
        # (:func:`~repro.chase.engine.chase` flushes, also when this raises).
        return run_rounds(
            self._round_step(rules, store, active_tracer),
            store, self.limits, self.on_limit, self.variant, active_tracer,
        )

    @staticmethod
    def _round_step(
        rules: List[CompiledRule], store: SqliteAtomStore, tracer: AnyTracer
    ) -> "RoundStep":
        """The chase round as a round step: one statement batch per
        (rule, delta slot), every insert stamped with the round's ``seq``.

        The step writes its own rows, so it reports their *count* to the
        driver (which then inserts nothing) and advances the store's ``seq``
        watermark itself.
        """
        from ...chase.rounds import RoundOutcome, RuleRow

        traced = tracer.enabled
        delta_predicates: Optional[Set[str]] = None  # None = initial round
        prev_watermark = 0

        def step(round_index: int, delta: "Delta") -> "RoundOutcome":
            nonlocal delta_predicates, prev_watermark
            round_start = store.current_seq()
            round_seq = round_start + 1
            round_inserts: Dict[str, int] = {}
            round_considered = 0
            round_fired = 0
            rule_rows: List["RuleRow"] = []
            for rule in rules:
                if delta_predicates is None:
                    # Initial round: the slot-0 statement with a zero
                    # watermark is the unconstrained full body join.
                    slots: Tuple[int, ...] = (0,)
                    delta_start = 0
                else:
                    slots = tuple(
                        slot
                        for slot, atom in enumerate(rule.tgd.body)
                        if atom.predicate.name in delta_predicates
                    )
                    delta_start = prev_watermark
                rule_started = tracer.now() if traced else 0.0
                rule_staged = 0
                rule_fired = 0
                rule_atoms = 0
                for slot in slots:
                    staged = rule.stage(store, slot, delta_start, round_start)
                    if staged == 0:
                        continue
                    rule_staged += staged
                    rule.record(store)
                    if rule.restricted:
                        fired = rule.filter_unsatisfied(store, round_start)
                    else:
                        fired = staged
                    rule_fired += fired
                    if fired == 0:
                        continue
                    for head_sql, head_predicate in rule.head_inserts:
                        inserted = store.bulk_apply(
                            head_sql,
                            {"round_seq": round_seq},
                            predicate=head_predicate,
                            family="pushdown-apply",
                        )
                        if inserted:
                            rule_atoms += inserted
                            round_inserts[head_predicate.name] = (
                                round_inserts.get(head_predicate.name, 0) + inserted
                            )
                round_considered += rule_staged
                round_fired += rule_fired
                if traced and rule_staged:
                    # Set-based statements invent nulls inside SQLite, so
                    # ``nulls_invented`` has no per-rule attribution here.
                    rule_rows.append(
                        RuleRow(
                            rule.tgd_index, rule_staged, rule_fired, rule_atoms, 0,
                            tracer.now() - rule_started,
                        )
                    )
            total = sum(round_inserts.values())
            if total:
                store.advance_seq(round_seq)
                prev_watermark = round_start
                delta_predicates = set(round_inserts)
            return RoundOutcome(round_considered, round_fired, total, rule_rows)

        return step
