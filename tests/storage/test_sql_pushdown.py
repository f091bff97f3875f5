"""The ``sql-pushdown`` strategy beyond conformance: plans, pragmas, wiring.

The byte-identity of pushdown results is established differentially in
``tests/property/test_conformance.py`` and the edge-case grid; this module
pins what those suites cannot see from the outside:

* **query plans** — ``EXPLAIN QUERY PLAN`` over the compiled statements must
  show every relation access as an index search (the whole point of the
  strategy is set-based index joins; a silent ``SCAN`` on a relation table
  would be a performance regression, not a correctness one);
* **skolem determinism** — the in-SQL null-inventing UDF mints exactly the
  name :class:`~repro.core.terms.NullFactory` would for the same key;
* **pragma tuning** — the connection settings the strategy leans on, and
  the proof that the tuned file stores still survive a mid-chase crash and
  resume to the same fixpoint;
* **one path** — every program, linear or not, under every variant, runs
  the round step under the round driver, so it flushes once per round;
* **wiring** — the strategy is reachable only through a plain sqlite store
  and one worker, with actionable errors everywhere else.
"""

import json

import pytest

from repro.chase.engine import chase, make_backend_store
from repro.chase.result import ChaseLimits
from repro.core.parser import parse_database, parse_rules
from repro.core.terms import Constant, NullFactory, Variable
from repro.exceptions import ChaseLimitExceeded
from repro.storage.relation import NULL_MARKER, encode_term
from repro.storage.sqlbackend import (
    CompiledRule,
    PushdownExecutor,
    SqliteAtomStore,
    register_skolem_function,
)

from tests.helpers import GOLDEN_NULL_NAMES
from tests.helpers import chase_result_fingerprint as fingerprint

#: A join-body program (S ⋈ R is a two-atom body).
JOIN_RULES = "R(x,y) -> S(y,z)\nS(x,y), R(z,x) -> T(z,y)\n"
JOIN_FACTS = "R(a,b).\nR(b,a).\nR(b,c).\n"

#: A linear program (every body a single atom).
LINEAR_RULES = "R(x,y) -> S(y,z)\nS(x,y) -> T(x)\n"
LINEAR_FACTS = "R(a,b).\nR(b,b).\n"


def _join_program():
    return parse_database(JOIN_FACTS), parse_rules(JOIN_RULES)


def _linear_program():
    return parse_database(LINEAR_FACTS), parse_rules(LINEAR_RULES)


def _chain_program():
    """A 12-round linear chain: ``P0(a)`` copied down ``P0 -> ... -> P12``."""
    return parse_database("P0(a).\n"), parse_rules(
        "".join(f"P{i}(x) -> P{i + 1}(x)\n" for i in range(12))
    )


PROGRAMS = {"join": _join_program, "linear": _linear_program, "chain": _chain_program}


def _plan_details(store, sql, parameters):
    """The ``detail`` column of ``EXPLAIN QUERY PLAN`` for *sql*."""
    rows = store.query("EXPLAIN QUERY PLAN " + sql, parameters)
    return [row[-1] for row in rows]


def _assert_no_relation_scan(details, label):
    """Every relation access must be an index search.

    ``SCAN w`` over the per-rule temp *stage* table is the one expected scan
    (it holds exactly the round's firing keys); anything else scanning —
    a ``t{slot}``/``h{slot}`` alias or a ``rel_`` table — means a compiled
    join degraded to a full table walk.
    """
    for detail in details:
        if not detail.startswith("SCAN"):
            continue
        assert detail.startswith("SCAN w"), (
            f"{label}: relation access degraded to a table scan: {detail!r}\n"
            f"full plan: {details}"
        )


class TestCompiledQueryPlans:
    """``EXPLAIN QUERY PLAN`` regression: compiled joins stay index-backed."""

    @pytest.fixture()
    def bound_rule(self):
        # A two-atom body with a join variable in a non-leading position
        # (x2 joins Q.c1 to R.c0) plus an existential head — the restricted
        # variant compiles every statement family: two seed-slot stagings,
        # the NOT EXISTS firing filter, and the head insert.
        database = parse_database("Q(a,b).\nR(b,c).\nS(a,c,d).\n")
        tgds = parse_rules("Q(x1,x2), R(x2,x3) -> S(x1,x3,z1)\n")
        store = SqliteAtomStore()
        store.load_database(database)
        register_skolem_function(store)
        rule = CompiledRule(0, tuple(tgds)[0], "restricted", store)
        yield rule, store
        store.close()

    def test_staging_joins_search_indexes(self, bound_rule):
        rule, store = bound_rule
        parameters = {"delta_start": 0, "round_start": 10}
        for slot in range(2):
            details = _plan_details(store, rule.stage_sql(slot), parameters)
            _assert_no_relation_scan(details, f"stage(seed_slot={slot})")
            # At least one body alias must probe a real index (the seed
            # slot rides the seq watermark index; the other a column one).
            assert any(
                "USING INDEX" in detail or "USING COVERING INDEX" in detail
                for detail in details
            ), f"stage(seed_slot={slot}) plan has no index access: {details}"

    def test_fired_key_anti_join_uses_a_covering_index(self, bound_rule):
        rule, store = bound_rule
        details = _plan_details(
            store, rule.stage_sql(0), {"delta_start": 0, "round_start": 10}
        )
        # The pd_fired_* dedup table carries a UNIQUE over all key columns;
        # the anti-join must resolve inside that index alone.
        assert any("COVERING INDEX" in detail for detail in details), (
            f"fired-key anti-join is not covered by its unique index: {details}"
        )

    def test_restricted_not_exists_probe_searches_the_head_index(self, bound_rule):
        rule, store = bound_rule
        details = _plan_details(store, rule.firing_sql, {"round_start": 10})
        _assert_no_relation_scan(details, "restricted firing filter")
        # The correlated head probe (alias h0) must be an index search on
        # the frontier columns, not a scan of the head relation.
        head_rows = [detail for detail in details if "h0" in detail]
        assert head_rows, f"no head-probe row in plan: {details}"
        assert all("SEARCH" in detail for detail in head_rows), (
            f"restricted head probe scans the head relation: {details}"
        )

    def test_head_insert_guard_plans_clean(self, bound_rule):
        rule, store = bound_rule
        for head_sql, _predicate in rule.head_inserts:
            details = _plan_details(store, head_sql, {"round_seq": 11})
            _assert_no_relation_scan(details, "head insert")


class TestSkolemFunction:
    def test_udf_matches_null_factory_names(self):
        # The same (tgd_index, witness, variable) key must mint the same
        # null whether NullFactory hashes it in Python or the UDF does in
        # SQL over encoded column values.
        store = SqliteAtomStore()
        register_skolem_function(store)
        witness = ((Variable("x"), Constant("a")), (Variable("y"), Constant("b")))
        expected = NullFactory().for_key((3, witness, "z1"))
        (value,) = store.query(
            "SELECT repro_skolem(3, '[\"x\", \"y\"]', 'z1', ?, ?)",
            (encode_term(Constant("a")), encode_term(Constant("b"))),
        )[0:1][0]
        assert value == NULL_MARKER + expected.name
        store.close()

    @pytest.mark.parametrize("key, name", GOLDEN_NULL_NAMES)
    def test_udf_mints_the_golden_names(self, key, name):
        # Quotes, backslashes, newlines, non-ASCII and Null images all pass
        # through JSON names and encoded column values unharmed.
        index, witness, variable = key
        store = SqliteAtomStore()
        register_skolem_function(store)
        placeholders = "".join(", ?" for _ in witness)
        value = store.query(
            f"SELECT repro_skolem(?, ?, ?{placeholders})",
            (index, json.dumps([v.name for v, _ in witness]), variable)
            + tuple(encode_term(image) for _, image in witness),
        )[0][0]
        assert value == NULL_MARKER + name
        store.close()

    def test_udf_distinguishes_rules_witnesses_and_variables(self):
        store = SqliteAtomStore()
        register_skolem_function(store)
        a = encode_term(Constant("a"))
        b = encode_term(Constant("b"))
        base = store.query("SELECT repro_skolem(0, '[\"x\"]', 'z', ?)", (a,))[0][0]
        variants = {
            store.query("SELECT repro_skolem(1, '[\"x\"]', 'z', ?)", (a,))[0][0],
            store.query("SELECT repro_skolem(0, '[\"x\"]', 'w', ?)", (a,))[0][0],
            store.query("SELECT repro_skolem(0, '[\"x\"]', 'z', ?)", (b,))[0][0],
            store.query("SELECT repro_skolem(0, '[\"y\"]', 'z', ?)", (a,))[0][0],
        }
        assert base not in variants
        assert len(variants) == 4
        # Deterministic: asking again returns the identical name.
        again = store.query("SELECT repro_skolem(0, '[\"x\"]', 'z', ?)", (a,))[0][0]
        assert again == base
        store.close()

    def test_null_witnesses_feed_back_into_the_hash(self):
        # Nulls invented in earlier rounds appear as encoded "_:name"
        # column values; the UDF must decode them back to Null terms so the
        # key repr matches what the interpreted engines hash.
        store = SqliteAtomStore()
        register_skolem_function(store)
        inner = NullFactory().for_key((0, ((Variable("x"), Constant("a")),), "z"))
        expected = NullFactory().for_key((1, ((Variable("y"), inner),), "w"))
        value = store.query(
            "SELECT repro_skolem(1, '[\"y\"]', 'w', ?)", (encode_term(inner),)
        )[0][0]
        assert value == NULL_MARKER + expected.name
        store.close()


class TestOneRoundStep:
    """Every program takes the round step under ``run_rounds``."""

    @pytest.mark.parametrize("variant", ("oblivious", "semi-oblivious", "restricted"))
    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_every_program_takes_the_round_step(self, program, variant):
        database, tgds = PROGRAMS[program]()
        expected = fingerprint(chase(database, tgds, variant=variant))
        store = SqliteAtomStore()
        result = PushdownExecutor(variant).run(database, tgds, store)
        result.materialize()
        assert fingerprint(result) == expected
        tables = {
            name
            for (name,) in store.query(
                "SELECT name FROM sqlite_temp_master WHERE type = 'table'"
            )
        }
        # The round step's per-rule temp tables, and nothing else.
        assert {"pd_stage_0", "pd_fired_0"} <= tables
        assert ("pd_fire_0" in tables) == (variant == "restricted")
        assert all(name.startswith(("pd_stage_", "pd_fired_", "pd_fire_")) for name in tables)
        if program == "chain":
            assert result.rounds == 12
        store.close()

    def test_linear_pushdown_flushes_once_per_round_like_indexed(self):
        # Round-granular durability: a hard crash loses at most the round in
        # flight, on the linear programs the paper studies too.
        class FlushCounter(SqliteAtomStore):
            flushes = 0

            def flush(self):
                self.flushes += 1
                super().flush()

        database, tgds = _linear_program()
        counts = {}
        for strategy in ("indexed", "sql-pushdown"):
            store = FlushCounter()
            result = chase(database, tgds, store=store, strategy=strategy)
            assert result.terminated and result.rounds == 2
            counts[strategy] = store.flushes
            store.close()
        # one per productive round, plus the final one
        assert counts == {"indexed": 3, "sql-pushdown": 3}


class TestPragmaTuning:
    def test_memory_store_pragmas(self):
        with SqliteAtomStore() as store:
            assert store.query("PRAGMA journal_mode")[0][0] == "memory"
            assert store.query("PRAGMA synchronous")[0][0] == 2
            assert store.query("PRAGMA cache_size")[0][0] == -16384
            assert store.query("PRAGMA temp_store")[0][0] == 2

    def test_file_store_pragmas(self, tmp_path):
        # WAL + synchronous=NORMAL: one fsync per checkpoint instead of per
        # commit, while a crash still only loses un-checkpointed WAL frames
        # that the next open replays — resumability is pinned below.
        with SqliteAtomStore(path=str(tmp_path / "tuned.db")) as store:
            assert store.query("PRAGMA journal_mode")[0][0] == "wal"
            assert store.query("PRAGMA synchronous")[0][0] == 1
            assert store.query("PRAGMA cache_size")[0][0] == -16384
            assert store.query("PRAGMA temp_store")[0][0] == 2

    @pytest.mark.parametrize("program", ["join", "linear"])
    def test_pushdown_budget_raise_still_persists_the_prefix(self, tmp_path, program):
        # The WAL-tuned file store must keep the interrupted prefix on disk
        # even when the pushdown executor raises mid-chase — that prefix is
        # exactly what makes the file resumable after a crash.
        database, tgds = _join_program() if program == "join" else _linear_program()
        fresh = chase(database, tgds)
        path = str(tmp_path / f"{program}.db")
        store = make_backend_store(f"sqlite:{path}")
        with pytest.raises(ChaseLimitExceeded):
            chase(
                database,
                tgds,
                store=store,
                strategy="sql-pushdown",
                limits=ChaseLimits(max_rounds=1),
                on_limit="raise",
            )
        store.close()
        with SqliteAtomStore(path=path) as reopened:
            assert reopened.atom_count() > 0  # seed + round-1 atoms survived
        # Resume *through the pushdown strategy* over the reopened file:
        # the content-addressed nulls make the resumed fixpoint identical
        # to an uninterrupted in-memory run.
        resumed = chase(
            database, tgds, store=SqliteAtomStore(path=path), strategy="sql-pushdown"
        )
        assert resumed.terminated
        assert sorted(map(str, resumed.instance)) == sorted(map(str, fresh.instance))
        resumed.store.close()

    def test_interrupted_pushdown_resumes_across_strategies(self, tmp_path):
        # A prefix persisted by the interpreted engine must be resumable by
        # the compiled one (and the file then holds the shared fixpoint).
        database, tgds = _join_program()
        fresh = chase(database, tgds)
        path = str(tmp_path / "crossover.db")
        partial = chase(
            database,
            tgds,
            store=make_backend_store(f"sqlite:{path}"),
            limits=ChaseLimits(max_rounds=1),
        )
        assert not partial.terminated
        partial.store.close()
        resumed = chase(
            database, tgds, store=SqliteAtomStore(path=path), strategy="sql-pushdown"
        )
        assert resumed.terminated
        assert sorted(map(str, resumed.instance)) == sorted(map(str, fresh.instance))
        assert resumed.store.atom_count() == len(fresh.instance)
        resumed.store.close()


class TestPushdownWiring:
    def test_chase_requires_the_sqlite_backend(self):
        database, tgds = _join_program()
        with pytest.raises(ValueError, match="requires the sqlite backend"):
            chase(database, tgds, strategy="sql-pushdown")

    def test_chase_refuses_pushdown_with_workers(self):
        database, tgds = _join_program()
        for workers in (2, 4):
            with pytest.raises(ValueError, match="runs serially"):
                chase(database, tgds, strategy="sql-pushdown", backend="sqlite", workers=workers)

    def test_executor_validates_its_configuration(self):
        for variant in ("core", "semi_oblivious"):
            with pytest.raises(ValueError, match="unknown chase variant"):
                PushdownExecutor(variant=variant)
        with pytest.raises(ValueError, match="on_limit"):
            PushdownExecutor(on_limit="ignore")
        database, tgds = _join_program()
        with pytest.raises(ValueError, match="requires a SqliteAtomStore"):
            PushdownExecutor().run(database, tgds, store=None)

    def test_executor_run_matches_the_engine(self):
        database, tgds = _join_program()
        expected = fingerprint(chase(database, tgds, variant="semi-oblivious"))
        store = SqliteAtomStore()
        result = PushdownExecutor("semi-oblivious").run(database, tgds, store)
        result.materialize()
        assert fingerprint(result) == expected
        store.close()

    def test_limit_stop_returns_and_raises_like_the_engines(self):
        database, tgds = _join_program()
        limits = ChaseLimits(max_rounds=1)
        reference = chase(database, tgds, limits=limits)
        pushed = chase(
            database,
            tgds,
            backend="sqlite",
            strategy="sql-pushdown",
            limits=limits,
        )
        assert not pushed.terminated
        assert pushed.stop_reason == reference.stop_reason == "max_rounds"
        assert pushed.rounds == reference.rounds
        assert pushed.atoms_created == reference.atoms_created
        with pytest.raises(ChaseLimitExceeded, match="max_rounds budget"):
            chase(
                database,
                tgds,
                backend="sqlite",
                strategy="sql-pushdown",
                limits=limits,
                on_limit="raise",
            )
