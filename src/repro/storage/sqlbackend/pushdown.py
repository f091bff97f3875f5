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

For **linear** rule sets (every body a single atom) under the oblivious and
semi-oblivious variants, :class:`PushdownExecutor` switches to a second
tier: the entire fixpoint runs as *one* recursive CTE whose rows carry a
per-row round column, and the round/trigger/atom accounting of the serial
engine is replayed over the per-round counts afterwards (see
:class:`_RecursiveCteTier`).

:class:`CompiledPlanQuery` is the parallel-worker companion: the same
compiled body join, partition-filtered with ``repro_partition`` and
watermarked by the worker's own ``seq`` snapshot, feeding homomorphisms to
the ordinary trigger/report protocol of :mod:`repro.chase.parallel`.

Layering: this package must stay importable without :mod:`repro.chase`, so
chase-side classes (``ChaseResult``, ``ChaseLimits``) are imported inside
the functions that need them.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ...core.atoms import Atom
from ...core.instances import Database
from ...core.predicates import Predicate
from ...core.terms import NullKeyRenderer, Term, Variable, null_name
from ...core.tgds import TGD
from ...obs.tracer import NULL_TRACER, AnyTracer, as_tracer
from ..relation import NULL_MARKER, decode_value
from .store import SqliteAtomStore, _quote, table_name

if TYPE_CHECKING:
    from ...chase.result import ChaseLimits, ChaseResult
    from ...chase.rounds import RoundBudget, RoundOutcome, RoundStep, RuleRow

#: Name of the deterministic null-inventing SQL function registered by
#: :func:`register_skolem_function`.
SKOLEM_FUNCTION = "repro_skolem"

#: Cap schedule of the recursive-CTE tier: first attempt, then multiply
#: until the budget automaton is conclusive (a cap equal to ``max_rounds``
#: is always conclusive, so bounded runs never retry more than once).
_CTE_INITIAL_CAP = 8
_CTE_CAP_GROWTH = 4


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
        self._store = store

        # Body layout: first-occurrence column per variable, equality
        # conditions for repeated occurrences (the same rendering as
        # CompiledPlanQuery, so serial rounds and workers see the same joins).
        first_seen: Dict[Variable, str] = {}
        conditions: List[str] = []
        for slot, atom in enumerate(tgd.body):
            for position, term in enumerate(atom.terms):
                column = f"t{slot}.c{position}"
                if term in first_seen:
                    conditions.append(f"{column} = {first_seen[term]}")
                else:
                    first_seen[term] = column
        self._first_seen = first_seen
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
            self._compile_firing(store) if self.restricted else None
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
        store = self._store
        tables = [
            f"{store.read_source(atom.predicate)} AS t{slot}"
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

    def _compile_firing(self, store: SqliteAtomStore) -> str:
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
            aliases.append(f"{store.read_source(atom.predicate)} AS {alias}")
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
        guard = store.insert_guard(atom.predicate, expressions)
        where = f" WHERE {guard}" if guard else ""
        sql = (
            f"INSERT OR IGNORE INTO {_quote(table_name(atom.predicate.name))} "
            f"({', '.join(columns)}, seq) "
            f"SELECT {', '.join(expressions)}, :round_seq FROM {source} AS w{where}"
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

    Linear rule sets under the oblivious/semi-oblivious variants route to
    the recursive-CTE tier instead (one statement for the whole fixpoint);
    the restricted variant always takes the round loop, because its
    ``NOT EXISTS`` check must observe round-start snapshots.
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
        as set-based statements, so ``rule_round`` events report the fired
        trigger counts but ``nulls_invented`` (and, on the CTE tier,
        per-rule ``atoms_created``) as 0: that attribution only exists in
        the interpreted engines.  Tracing never changes the result.
        """
        from ...chase.rounds import insert_sorted, run_rounds

        if not isinstance(store, SqliteAtomStore):
            raise ValueError(
                "the sql-pushdown strategy executes inside SQLite and "
                "requires a SqliteAtomStore"
            )
        active_tracer = as_tracer(tracer)
        insert_sorted(store, database.atoms())
        register_skolem_function(store)
        rules = [
            CompiledRule(index, tgd, self.variant, store)
            for index, tgd in enumerate(tgds)
        ]
        linear = bool(rules) and all(len(rule.tgd.body) == 1 for rule in rules)
        try:
            if linear and self.variant != "restricted":
                tier = _RecursiveCteTier(rules, store)
                return tier.run(self.limits, self.on_limit, self.variant, active_tracer)
            return run_rounds(
                self._round_step(rules, store, active_tracer),
                store, self.limits, self.on_limit, self.variant, active_tracer,
            )
        finally:
            # Commit whatever the run wrote last — the fixpoint round's memo
            # tables, the CTE tier's one bulk copy — also when it raises.
            store.flush()

    @staticmethod
    def _round_step(
        rules: List[CompiledRule], store: SqliteAtomStore, tracer: AnyTracer
    ) -> "RoundStep":
        """The delta-round tier as a round step: one statement batch per
        (rule, delta slot), every insert stamped with the round's ``seq``.

        The step writes its own rows, so it reports their *count* to the
        driver (which then inserts nothing) and advances the store's ``seq``
        watermark itself.
        """
        from ...chase.rounds import RoundOutcome, RuleRow

        traced = tracer.enabled
        delta_predicates: Optional[Set[str]] = None  # None = initial round
        prev_watermark = 0

        def step(round_index: int, delta: Sequence[Atom]) -> "RoundOutcome":
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


class _RecursiveCteTier:
    """Linear rule sets: the whole fixpoint as one recursive CTE.

    All involved predicates are folded into a single recursion
    ``ch(pred, k0..kN, round)`` (rows tagged and padded to the widest
    arity): the base branches emit every seed atom at round 0, and each
    (rule, head atom) contributes a recursive branch deriving the head row
    at ``round + 1`` — existentials minted inline by the skolem UDF, so the
    recursion carries finished atom rows, not bindings.  ``UNION`` dedup
    keeps re-derivations bounded per (row, round).

    The statement materializes ``MIN(round)`` per distinct row into a temp
    table.  For linear rules that minimum *is* the breadth-first round the
    engines would first create the atom in (a parent row at its minimal
    round derives the child at the next one), and levels are contiguous, so
    the round driver's budget automaton
    (:class:`~repro.chase.rounds.RoundBudget`) can be replayed over the
    per-round counts to recover ``rounds`` / ``atoms_created`` /
    ``stop_reason`` exactly; ``triggers_fired`` is recovered per rule as the
    count of distinct witness projections among body rows up to the stop
    round.

    The recursion depth cap starts small and grows geometrically until the
    replay is conclusive — a run stopped by its round budget, or a fixpoint
    observed strictly below the cap, never needs a retry.
    """

    ATOMS_TABLE = "pd_cte_atoms"

    def __init__(self, rules: Sequence[CompiledRule], store: SqliteAtomStore) -> None:
        self.rules = tuple(rules)
        self.store = store
        predicates: Dict[str, Predicate] = {}
        for rule in self.rules:
            for atom in rule.tgd.body + rule.tgd.head:
                predicates.setdefault(atom.predicate.name, atom.predicate)
        self.predicates: List[Predicate] = [
            predicates[name] for name in sorted(predicates)
        ]
        self._tag = {
            predicate.name: f":p{index}"
            for index, predicate in enumerate(self.predicates)
        }
        self.width = max(1, max(p.arity for p in self.predicates))
        self._params = {
            f"p{index}": predicate.name
            for index, predicate in enumerate(self.predicates)
        }
        self._bind(store)
        self.cte_sql = self._compile_cte(store)
        self._count_sqls = [self._compile_trigger_count(rule) for rule in self.rules]

    def _bind(self, store: SqliteAtomStore) -> None:
        key_columns = ", ".join(f"k{i} TEXT NOT NULL" for i in range(self.width))
        store.bulk_apply(
            f"DROP TABLE IF EXISTS temp.{self.ATOMS_TABLE}", family="pushdown-ddl"
        )
        store.bulk_apply(
            f"CREATE TEMP TABLE {self.ATOMS_TABLE} "
            f"(pred TEXT NOT NULL, {key_columns}, min_round INTEGER NOT NULL)",
            family="pushdown-ddl",
        )
        store.bulk_apply(
            f"CREATE INDEX pd_cte_atoms_pred ON {self.ATOMS_TABLE} (pred, min_round)",
            family="pushdown-ddl",
        )

    def _compile_cte(self, store: SqliteAtomStore) -> str:
        key_columns = [f"k{i}" for i in range(self.width)]
        branches: List[str] = []
        for predicate in self.predicates:
            expressions = (
                [f"c{i}" for i in range(predicate.arity)]
                if predicate.arity
                else ["c_sentinel"]
            )
            expressions += ["''"] * (self.width - len(expressions))
            branches.append(
                f"SELECT {self._tag[predicate.name]}, {', '.join(expressions)}, 0 "
                f"FROM {store.read_source(predicate)}"
            )
        for rule in self.rules:
            body = rule.tgd.body[0]
            first_position: Dict[Variable, int] = {}
            conditions: List[str] = []
            for position, term in enumerate(body.terms):
                if term in first_position:
                    conditions.append(f"ch.k{position} = ch.k{first_position[term]}")
                else:
                    first_position[term] = position
            witness_args = "".join(
                f", ch.k{first_position[v]}" for v in rule.witness
            )
            for head in rule.tgd.head:
                expressions = []
                for term in head.terms:
                    body_position = first_position.get(term)
                    if body_position is not None:
                        expressions.append(f"ch.k{body_position}")
                    else:
                        expressions.append(
                            f"{SKOLEM_FUNCTION}({rule.tgd_index}, "
                            f"{_sql_string(rule._names_json)}, "
                            f"{_sql_string(term.name)}{witness_args})"
                        )
                if not expressions:
                    expressions = ["'0'"]
                expressions += ["''"] * (self.width - len(expressions))
                where = [f"ch.pred = {self._tag[body.predicate.name]}", "ch.round < :cap"]
                where.extend(conditions)
                branches.append(
                    f"SELECT {self._tag[head.predicate.name]}, "
                    f"{', '.join(expressions)}, ch.round + 1 "
                    f"FROM ch WHERE {' AND '.join(where)}"
                )
        columns = ", ".join(["pred"] + key_columns)
        return (
            f"WITH RECURSIVE ch(pred, {', '.join(key_columns)}, round) AS ("
            + " UNION ".join(branches)
            + f") INSERT INTO {self.ATOMS_TABLE} ({columns}, min_round) "
            f"SELECT {columns}, MIN(round) FROM ch GROUP BY {columns}"
        )

    def final_insert_sql(self, predicate: Predicate) -> str:
        """The statement copying *predicate*'s CTE-derived rows into its
        relation, with the breadth-first ``min_round`` becoming the ``seq``
        offset so watermark semantics match the round-loop tier."""
        arity = predicate.arity
        value_exprs = [f"k{i}" for i in range(arity)] if arity else ["k0"]
        columns = self.store._columns(arity)
        guard = self.store.insert_guard(predicate, value_exprs)
        guard_clause = f" AND {guard}" if guard else ""
        return (
            f"INSERT OR IGNORE INTO {_quote(table_name(predicate.name))} "
            f"({', '.join(columns)}, seq) "
            f"SELECT {', '.join(value_exprs)}, :base + min_round "
            f"FROM {self.ATOMS_TABLE} "
            f"WHERE pred = :pred AND min_round BETWEEN 1 AND :stop"
            f"{guard_clause}"
        )

    def _compile_trigger_count(self, rule: CompiledRule) -> str:
        """Distinct firing keys of *rule* among rows up to ``:cutoff``."""
        body = rule.tgd.body[0]
        first_position: Dict[Variable, int] = {}
        conditions: List[str] = []
        for position, term in enumerate(body.terms):
            if term in first_position:
                conditions.append(f"k{position} = k{first_position[term]}")
            else:
                first_position[term] = position
        witness_columns = [f"k{first_position[v]}" for v in rule.witness] or ["1"]
        where = [f"pred = {self._tag[body.predicate.name]}", "min_round <= :cutoff"]
        where.extend(conditions)
        return (
            f"SELECT COUNT(*) FROM (SELECT DISTINCT {', '.join(witness_columns)} "
            f"FROM {self.ATOMS_TABLE} WHERE {' AND '.join(where)})"
        )

    def run(
        self,
        limits: "ChaseLimits",
        on_limit: str,
        variant: str,
        tracer: AnyTracer = NULL_TRACER,
    ) -> "ChaseResult":
        from ...chase.rounds import RoundBudget

        store = self.store
        base_seq = store.current_seq()
        base_total = store.atom_count()
        if limits.max_rounds is not None:
            cap = min(_CTE_INITIAL_CAP, limits.max_rounds)
        else:
            cap = _CTE_INITIAL_CAP
        while True:
            store.bulk_apply(f"DELETE FROM {self.ATOMS_TABLE}", family="pushdown-ddl")
            store.bulk_apply(
                self.cte_sql, {**self._params, "cap": cap}, family="pushdown-cte"
            )
            counts = dict(
                store.query(
                    f"SELECT min_round, COUNT(*) FROM {self.ATOMS_TABLE} "
                    "WHERE min_round > 0 GROUP BY min_round",
                    family="pushdown-cte-count",
                )
            )
            budget = RoundBudget(limits, on_limit, variant)
            stop_reason = self._replay(counts, cap, budget, base_total)
            if stop_reason is not None:
                break
            # Inconclusive: a fixpoint was observed only *at* the cap, so
            # deeper rows may exist.  Grow and rerun (bounded runs are
            # conclusive once cap == max_rounds, so this never loops).
            if limits.max_rounds is not None:
                cap = min(cap * _CTE_CAP_GROWTH, limits.max_rounds)
            else:
                cap *= _CTE_CAP_GROWTH

        rounds = budget.rounds
        cutoff = rounds if stop_reason == "fixpoint" else rounds - 1
        if cutoff >= 0:
            for count_sql in self._count_sqls:
                budget.triggers_fired += store.query(
                    count_sql, {**self._params, "cutoff": cutoff},
                    family="pushdown-cte-count",
                )[0][0]
        if tracer.enabled:
            self._emit_trace(tracer, counts, base_total, rounds, stop_reason)

        if rounds > 0:
            for predicate in self.predicates:
                store.bulk_apply(
                    self.final_insert_sql(predicate),
                    {"base": base_seq, "pred": predicate.name, "stop": rounds},
                    predicate=predicate,
                    family="pushdown-cte-apply",
                )
            store.advance_seq(base_seq + rounds)
        return budget.result(store, stop_reason)

    def _emit_trace(
        self,
        tracer: AnyTracer,
        counts: Dict[int, int],
        base_total: int,
        rounds: int,
        stop_reason: str,
    ) -> None:
        """Reconstruct the engines' ``round``/``rule_round`` stream post hoc.

        The recursion ran as one statement, so per-round timing does not
        exist (``dur`` is 0.0) and head insertions are not attributed to
        rules; the counts are exact, recovered from the cumulative
        distinct-firing-key queries: round ``r`` fires
        ``cum(r-1) - cum(r-2)`` triggers per rule, so the stream sums to
        the result's ``triggers_fired``/``atoms_created`` exactly — the
        same contract the interpreted engines honour.
        """
        from ...chase.rounds import RuleRow, emit_round

        # The round driver would run a final, trigger-enumerating round to
        # observe the fixpoint; budget stops end before that round runs.
        emit_rounds = rounds + 1 if stop_reason == "fixpoint" else rounds
        if emit_rounds <= 0:
            return
        # cumulative[i][k] = rule i's distinct firing keys over rows with
        # min_round <= k; round r consumes the k = r-1 increment.
        cumulative = [
            [
                int(
                    self.store.query(
                        count_sql, {**self._params, "cutoff": k},
                        family="pushdown-cte-count",
                    )[0][0]
                )
                for k in range(emit_rounds)
            ]
            for count_sql in self._count_sqls
        ]
        for r in range(1, emit_rounds + 1):
            rule_rows = []
            for rule, cum in zip(self.rules, cumulative):
                fired = cum[r - 1] - (cum[r - 2] if r >= 2 else 0)
                if fired:
                    rule_rows.append(RuleRow(rule.tgd_index, fired, fired, 0, 0, 0.0))
            round_fired = sum(row.fired for row in rule_rows)
            emit_round(
                tracer,
                r,
                base_total if r == 1 else counts.get(r - 1, 0),
                round_fired,
                round_fired,
                counts.get(r, 0) if r <= rounds else 0,
                rule_rows,
                0.0,
            )

    @staticmethod
    def _replay(
        counts: Dict[int, int], cap: int, budget: "RoundBudget", base_total: int
    ) -> Optional[str]:
        """Replay the per-round row counts through the run's budget automaton.

        Leaves ``rounds``/``atoms_created`` on *budget* and returns the stop
        reason when the verdict is conclusive under this *cap*, else
        ``None`` (a fixpoint seen only because the recursion was truncated).
        """
        total = base_total
        while budget.next_round_allowed():
            new = counts.get(budget.rounds + 1, 0)
            if new == 0:
                return "fixpoint" if budget.rounds + 1 <= cap else None
            total += new
            if not budget.round_done(new, total):
                return "max_atoms"
        return "max_rounds"


class CompiledPlanQuery:
    """Partition-aware body join for one (TGD, seed slot) — the parallel
    worker's matching unit under ``--strategy sql-pushdown``.

    Selects one column per body variable (first occurrence), so each result
    row *is* a body homomorphism; it (a) reads every relation through
    :meth:`SqliteAtomStore.read_source` so overlay replicas resolve to
    base-snapshot + delta, (b) watermarks the seed slot by the worker's own
    ``seq`` snapshot for semi-naive delta rounds, and (c) filters seed rows
    to the worker's hash partition with the same ``repro_partition``
    function (and the same hash-all-columns convention for an empty
    position list) the stores use in ``atoms_partition`` — so a worker
    enumerates exactly the homomorphisms whose seed atom it owns.
    """

    __slots__ = (
        "tgd",
        "seed_slot",
        "variables",
        "body_predicates",
        "_initial_sql",
        "_delta_sql",
        "_partitioned",
    )

    def __init__(
        self,
        tgd: TGD,
        seed_slot: int,
        partition_positions: Sequence[int],
        store: SqliteAtomStore,
        partitioned: bool,
    ) -> None:
        self.tgd = tgd
        self.seed_slot = seed_slot
        self._partitioned = partitioned
        self.body_predicates = tuple(atom.predicate for atom in tgd.body)
        # Create the body relations up front: read_source() is rendered
        # *now*, and an overlay replica resolves a predicate to its
        # base-snapshot + main-delta union only once the main delta table
        # exists — without this, SQL compiled before the first delta round
        # would keep reading the base snapshot alone.
        for atom in tgd.body:
            store.create_relation(atom.predicate)
        # Pre-build the join indexes the compiled scans will probe.
        occurrences: Dict[Variable, int] = {}
        for atom in tgd.body:
            for term in atom.terms:
                occurrences[term] = occurrences.get(term, 0) + 1
        for atom in tgd.body:
            for position, term in enumerate(atom.terms):
                if position > 0 and occurrences.get(term, 0) > 1:
                    store._ensure_position_index(atom.predicate, position)

        first_seen: Dict[Variable, str] = {}
        conditions: List[str] = []
        for slot, atom in enumerate(tgd.body):
            for position, term in enumerate(atom.terms):
                column = f"t{slot}.c{position}"
                if term in first_seen:
                    conditions.append(f"{column} = {first_seen[term]}")
                else:
                    first_seen[term] = column
        self.variables: Tuple[Variable, ...] = tuple(first_seen)
        select = ", ".join(first_seen.values()) or "1"
        tables = ", ".join(
            f"{store.read_source(atom.predicate)} AS t{slot}"
            for slot, atom in enumerate(tgd.body)
        )

        if partitioned:
            seed_atom = tgd.body[seed_slot]
            if partition_positions:
                hash_columns = [f"t{seed_slot}.c{p}" for p in partition_positions]
            elif seed_atom.predicate.arity:
                # Empty position list = hash every column, the stores'
                # atoms_partition convention.
                hash_columns = [
                    f"t{seed_slot}.c{p}" for p in range(seed_atom.predicate.arity)
                ]
            else:
                hash_columns = []
            arguments = "".join(f", {column}" for column in hash_columns)
            conditions.append(
                f"repro_partition(:n_workers{arguments}) = :worker_id"
            )

        initial_conditions = list(conditions)
        delta_conditions = list(conditions)
        for slot in range(len(tgd.body)):
            if slot == seed_slot:
                delta_conditions.append(f"t{slot}.seq > :delta_start")
            elif slot < seed_slot:
                delta_conditions.append(f"t{slot}.seq <= :delta_start")
        initial_where = (
            f" WHERE {' AND '.join(initial_conditions)}" if initial_conditions else ""
        )
        self._initial_sql = f"SELECT {select} FROM {tables}{initial_where}"
        self._delta_sql = (
            f"SELECT {select} FROM {tables} WHERE {' AND '.join(delta_conditions)}"
        )

    def _rows(self, store: SqliteAtomStore, sql: str, parameters: Dict) -> Iterator[Dict]:
        if not all(store.has_relation(p) for p in self.body_predicates):
            return
        for row in store.query(sql, parameters, family="pushdown-match"):
            yield {
                variable: decode_value(value)
                for variable, value in zip(self.variables, row)
            }

    def initial_matches(self, store: SqliteAtomStore, n_workers: int, worker_id: int) -> Iterator[Dict]:
        """All body homomorphisms whose seed atom this worker owns."""
        parameters: Dict = {}
        if self._partitioned:
            parameters = {"n_workers": n_workers, "worker_id": worker_id}
        return self._rows(store, self._initial_sql, parameters)

    def delta_matches(self, store: SqliteAtomStore, delta_start: int, n_workers: int,
                      worker_id: int) -> Iterator[Dict]:
        """Owned homomorphisms whose seed atom is newer than *delta_start*."""
        parameters: Dict = {"delta_start": delta_start}
        if self._partitioned:
            parameters["n_workers"] = n_workers
            parameters["worker_id"] = worker_id
        return self._rows(store, self._delta_sql, parameters)
