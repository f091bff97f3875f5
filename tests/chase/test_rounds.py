"""The round driver, pinned with fakes — and the round stream, pinned across steps.

:func:`repro.chase.rounds.run_rounds` owns the budget automaton, trace
emission, sorted insertion, the per-round flush and the result.  The first
half of this file drives it with a scripted step and a recording fake store
(no engine runs), so every clause of that contract has a test that names it.
The second half checks the other side of the seam: every real round step —
serial, the fuzz oracle's naive reference, coordinator-merge, pushdown —
produces the same
per-round ``(round, fired, atoms_created)`` stream under the driver.
"""

import pytest

from repro.chase.engine import chase
from repro.chase.result import ChaseLimits
from repro.chase.rounds import RoundOutcome, RuleRow, insert_rows, insert_sorted, run_rounds
from repro.core.parser import parse_atom, parse_database, parse_rules
from repro.exceptions import ChaseLimitExceeded
from repro.fuzz.reference import REFERENCE_ENGINES
from repro.generators import generate_skew_workload
from repro.obs import ListTraceSink, ManualClock, Tracer
from repro.storage.sqlbackend import SqliteAtomStore


def _rows(*texts):
    """Ground atoms as the driver trades them: predicate -> rows, in the given order."""
    rows = {}
    for text in texts:
        atom = parse_atom(text, as_variable=False)
        rows.setdefault(atom.predicate, []).append(atom.terms)
    return rows


def _texts(predicate, rows):
    return [f"{predicate.name}({', '.join(map(str, row))})" for row in rows]


class RecordingStore:
    """An ``AtomStore`` fake that logs every call the driver makes."""

    def __init__(self, seed_size=2):
        self.size = seed_size
        self.log = []

    def add_rows(self, predicate, rows):
        batch = _texts(predicate, rows)
        self.log.append(("add_rows", batch))
        self.size += len(batch)

    def atom_count(self):
        return self.size

    def flush(self):
        self.log.append(("flush",))


class ScriptedStep:
    """Plays back one prepared :class:`RoundOutcome` per round."""

    def __init__(self, *outcomes, store=None):
        self.outcomes = list(outcomes)
        self.store = store
        self.calls = []

    def __call__(self, round_index, delta):
        texts = [text for predicate, rows in delta.items() for text in _texts(predicate, rows)]
        self.calls.append((round_index, texts))
        if self.store is not None:
            self.store.log.append(("step", round_index))
        return self.outcomes[round_index]


FIXPOINT = RoundOutcome(considered=1, fired=0, new_rows={})


def _run(step, store, limits=ChaseLimits(), on_limit="return", tracer=None):
    return run_rounds(step, store, limits, on_limit, "scripted", tracer)


class TestBudgetAutomaton:
    def test_max_rounds_is_checked_before_the_step_is_called(self):
        step = ScriptedStep(RoundOutcome(1, 1, _rows("P(a)")), FIXPOINT)
        result = _run(step, RecordingStore(), ChaseLimits(max_rounds=1))
        assert [index for index, _ in step.calls] == [0]
        assert (result.terminated, result.stop_reason, result.rounds) == (False, "max_rounds", 1)

    def test_zero_round_budget_never_calls_the_step(self):
        step = ScriptedStep()
        result = _run(step, RecordingStore(), ChaseLimits(max_rounds=0))
        assert step.calls == []
        assert (result.stop_reason, result.rounds, result.atoms_created) == ("max_rounds", 0, 0)

    def test_max_atoms_is_checked_after_the_insert(self):
        store = RecordingStore(seed_size=2)
        step = ScriptedStep(RoundOutcome(2, 2, _rows("P(a)", "P(b)")), FIXPOINT, store=store)
        result = _run(step, store, ChaseLimits(max_atoms=3))
        # both atoms are in the store (and flushed) before the budget trips
        assert store.log == [("step", 0), ("add_rows", ["P(a)", "P(b)"]), ("flush",)]
        assert (result.stop_reason, result.rounds, result.atoms_created) == ("max_atoms", 1, 2)
        assert result.triggers_fired == 2 and not result.terminated

    def test_on_limit_raise_carries_the_counts(self):
        step = ScriptedStep(RoundOutcome(2, 2, _rows("P(a)", "P(b)")), FIXPOINT)
        message = "scripted chase exceeded its max_atoms budget"
        with pytest.raises(ChaseLimitExceeded, match=message) as error:
            _run(step, RecordingStore(), ChaseLimits(max_atoms=3), on_limit="raise")
        assert (error.value.rounds, error.value.atoms_created) == (1, 2)
        with pytest.raises(ChaseLimitExceeded, match="max_rounds") as error:
            _run(ScriptedStep(), RecordingStore(), ChaseLimits(max_rounds=0), on_limit="raise")
        assert (error.value.rounds, error.value.atoms_created) == (0, 0)

    @pytest.mark.parametrize("budget", ["max_atoms", "max_rounds"])
    def test_negative_budgets_are_rejected_and_zero_keeps_its_meaning(self, budget):
        with pytest.raises(ValueError, match=f"{budget} must be >= 0"):
            ChaseLimits(**{budget: -1})
        assert getattr(ChaseLimits(**{budget: 0}), budget) == 0
        assert getattr(ChaseLimits(**{budget: None}), budget) is None

    def test_fixpoint_never_raises(self):
        result = _run(ScriptedStep(FIXPOINT), RecordingStore(), on_limit="raise")
        assert (result.terminated, result.stop_reason, result.rounds) == (True, "fixpoint", 0)


class TestInsertAndFlushDiscipline:
    def test_atoms_reach_the_store_sorted_one_flush_per_productive_round(self):
        store = RecordingStore()
        step = ScriptedStep(
            RoundOutcome(3, 3, _rows("Q(c)", "P(b)", "P(a)")),
            RoundOutcome(1, 1, _rows("R(z)")),
            FIXPOINT,
            store=store,
        )
        result = _run(step, store)
        assert store.log == [
            ("step", 0), ("add_rows", ["P(a)", "P(b)"]), ("add_rows", ["Q(c)"]), ("flush",),
            ("step", 1), ("add_rows", ["R(z)"]), ("flush",),
            ("step", 2),  # the fixpoint round: nothing inserted, nothing flushed
        ]
        assert (result.rounds, result.atoms_created, result.triggers_fired) == (2, 4, 4)
        assert result.store is store

    def test_each_predicate_gets_one_sorted_add_rows_call_per_round(self):
        # Rows arrive as unsorted sets under unsorted predicates; predicates
        # with no rows make no call.
        store = RecordingStore()
        unsorted = {p: set(rows) for p, rows in _rows("Q(c)", "P(b)", "P(a)").items()}
        unsorted[next(iter(_rows("S(s)")))] = set()
        step = ScriptedStep(
            RoundOutcome(3, 3, unsorted), RoundOutcome(1, 1, _rows("R(z)")), FIXPOINT, store=store
        )
        result = _run(step, store)
        assert store.log == [
            ("step", 0), ("add_rows", ["P(a)", "P(b)"]), ("add_rows", ["Q(c)"]), ("flush",),
            ("step", 1), ("add_rows", ["R(z)"]), ("flush",),
            ("step", 2),
        ]
        assert step.calls == [(0, []), (1, ["P(a)", "P(b)", "Q(c)"]), (2, ["R(z)"])]
        assert (result.rounds, result.atoms_created, store.size) == (2, 4, 6)

    def test_insert_sorted_orders_and_insert_rows_keeps_the_given_order(self):
        rows = _rows("Q(c)", "P(b)", "P(a)")
        store = RecordingStore()
        ordered = insert_sorted(store, rows)
        assert [text for p, run in ordered.items() for text in _texts(p, run)] == [
            "P(a)", "P(b)", "Q(c)"
        ]
        insert_rows(store, rows)  # a worker's delta: already in canonical order
        assert store.log == [
            ("add_rows", ["P(a)", "P(b)"]), ("add_rows", ["Q(c)"]),
            ("add_rows", ["Q(c)"]), ("add_rows", ["P(b)", "P(a)"]),
        ]

    def test_each_step_sees_the_previous_rounds_sorted_delta(self):
        step = ScriptedStep(RoundOutcome(2, 2, _rows("P(b)", "P(a)")), FIXPOINT)
        _run(step, RecordingStore())
        assert step.calls == [(0, []), (1, ["P(a)", "P(b)"])]

    def test_already_written_rows_are_counted_not_reinserted(self):
        store = RecordingStore(seed_size=1)

        def sql_step(round_index, delta):
            assert list(delta) == []
            written = (3, 0)[round_index]
            store.size += written  # the step wrote its rows itself
            return RoundOutcome(written, written, written)

        result = _run(sql_step, store, ChaseLimits(max_atoms=10))
        assert store.log == [("flush",)]
        assert (result.rounds, result.atoms_created, result.stop_reason) == (1, 3, "fixpoint")

    def test_stores_without_flush_are_fine(self):
        class Plain:
            def __init__(self):
                self.rows = []

            def add_rows(self, predicate, rows):
                self.rows.extend(rows)

            def atom_count(self):
                return len(self.rows)

        result = _run(ScriptedStep(RoundOutcome(1, 1, _rows("P(a)")), FIXPOINT), Plain())
        assert (result.terminated, result.rounds) == (True, 1)


class TestTraceEmission:
    def test_rule_rounds_precede_their_round_sorted_by_rule_fixpoint_round_included(self):
        sink = ListTraceSink()
        tracer = Tracer(sink, clock=ManualClock(step=0.25), tool="test")
        step = ScriptedStep(
            RoundOutcome(
                5, 3, _rows("P(a)", "P(b)"),
                [RuleRow(2, 3, 1, 0, 0, 0.5), RuleRow(0, 2, 2, 2, 1, 0.125)],
            ),
            RoundOutcome(1, 0, {}, [RuleRow(1, 1, 0, 0, 0, 0.0)]),
        )
        result = _run(step, RecordingStore(seed_size=4), tracer=tracer)
        events = [event for event in sink.events if event["type"] in ("round", "rule_round")]
        assert [(e["type"], e["round"], e.get("rule")) for e in events] == [
            ("rule_round", 1, 0), ("rule_round", 1, 2), ("round", 1, None),
            ("rule_round", 2, 1), ("round", 2, None),
        ]
        first, second = (e for e in events if e["type"] == "round")
        assert (first["delta_size"], first["considered"], first["fired"]) == (4, 5, 3)
        assert (first["atoms_created"], first["dur"]) == (2, 0.25)
        # round 2 confirms the fixpoint: its delta is round 1's two atoms
        assert (second["delta_size"], second["fired"], second["atoms_created"]) == (2, 0, 0)
        assert events[0]["nulls_invented"] == 1 and events[0]["dur"] == 0.125
        assert sum(e["fired"] for e in (first, second)) == result.triggers_fired
        assert sum(e["atoms_created"] for e in (first, second)) == result.atoms_created

    def test_budget_stops_emit_no_event_for_the_round_that_never_ran(self):
        sink = ListTraceSink()
        step = ScriptedStep(RoundOutcome(1, 1, _rows("P(a)")), FIXPOINT)
        _run(step, RecordingStore(), ChaseLimits(max_rounds=1), tracer=Tracer(sink, tool="test"))
        assert [e["round"] for e in sink.events if e["type"] == "round"] == [1]


# --------------------------------------------------------------------------- #
# Every real step produces the same round stream.

JOIN = (
    "\n".join(f"edge(n{i}, n{i + 1})." for i in range(7)),
    "path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z).",
)
LINEAR = (
    "\n".join(f"A(c{i}, d{i % 2})." for i in range(5)),
    "A(x,y) -> B(y,z)\nB(x,y) -> C(x,w)\nC(x,y) -> D(y,x)\nD(x,y) -> E(x)",
)
#: Never reaches a fixpoint; run under ``max_rounds`` so the stream ends on
#: a budget stop, observed by the driver like any other.
LINEAR_CYCLE = (LINEAR[0], LINEAR[1] + "\nE(x) -> A(x,w)")

#: Every round step, twice where a step has two pool kinds under it.
#: ``sql-pushdown`` is serial and takes its one round step on every program.
STEPS = {
    "serial-indexed": {},
    "reference": {"reference": True},
    "coordinator-serial": {"workers": 2, "executor": "serial"},
    "coordinator-process": {"workers": 2, "executor": "process"},
    "pushdown": {"backend": "sqlite", "strategy": "sql-pushdown"},
}


def _round_stream(database, tgds, limits, reference=False, **options):
    sink = ListTraceSink()
    if reference:
        engine = REFERENCE_ENGINES["semi-oblivious"](limits=limits)
        engine.run(database, tgds, tracer=Tracer(sink))
    else:
        chase(database, tgds, limits=limits, tracer=Tracer(sink), **options)
    return [
        (event["round"], event["fired"], event["atoms_created"])
        for event in sink.events
        if event["type"] == "round"
    ]


def _program(name):
    if name == "skew":
        workload = generate_skew_workload(n_keys=4, rows=48)
        return workload.database, workload.tgds
    facts, rules = {"join": JOIN, "linear": LINEAR, "linear-cycle": LINEAR_CYCLE}[name]
    return parse_database(facts), parse_rules(rules)


@pytest.mark.parametrize("program", ("join", "linear", "linear-cycle", "skew"))
def test_round_stream_is_identical_across_steps(program):
    database, tgds = _program(program)
    bounded = program == "linear-cycle"
    limits = ChaseLimits(max_atoms=5000, max_rounds=7 if bounded else None)
    expected = _round_stream(database, tgds, limits)
    if bounded:
        assert len(expected) == 7 and expected[-1][2] > 0, "stopped by the round budget"
    else:
        assert len(expected) >= 2 and expected[-1][2] == 0, "ends on the fixpoint round"
    for name, options in STEPS.items():
        assert _round_stream(database, tgds, limits, **options) == expected, name


def test_the_linear_program_runs_the_round_statements_with_per_rule_atoms():
    database, tgds = _program("linear")
    sink = ListTraceSink()
    chase(database, tgds, backend="sqlite", strategy="sql-pushdown", tracer=Tracer(sink))
    families = {event["family"] for event in sink.events if event["type"] == "sql_family"}
    assert {"pushdown-stage", "pushdown-apply"} <= families
    assert not [family for family in families if family.startswith("pushdown-cte")]
    rounds = [event for event in sink.events if event["type"] == "round"]
    assert len(rounds) >= 2
    for event in rounds:
        per_rule = [
            e["atoms_created"]
            for e in sink.events
            if e["type"] == "rule_round" and e["round"] == event["round"]
        ]
        assert sum(per_rule) == event["atoms_created"], event


class TestSeqOrderOnSqlite:
    """Insertion order is what a persisted file remembers: ``seq`` = sorted order."""

    @staticmethod
    def _by_seq(store, relation):
        rows = store.query(f'SELECT c0, c1 FROM "rel_{relation}" ORDER BY seq')
        return [tuple(row) for row in rows]

    def test_seeds_and_derived_relations_read_back_in_sorted_order(self):
        facts = "\n".join(f"A(c{i}, d{i % 3})." for i in (7, 2, 9, 4, 0, 5))
        database, tgds = parse_database(facts), parse_rules("A(x,y) -> B(y,x)")
        store = SqliteAtomStore()
        chase(database, tgds, store=store, materialize=False)
        seeded = self._by_seq(store, "^a")
        derived = self._by_seq(store, "^b")
        assert seeded == sorted(seeded) and len(seeded) == 6
        assert derived == sorted(derived) and len(derived) == 6
        # one seq range per relation: the seed batch, then round 1's batch
        seqs = store.query('SELECT MIN(seq), MAX(seq) FROM "rel_^b"')[0]
        assert tuple(seqs) == (7, 12)
        store.close()

    def test_every_seeding_path_makes_one_bulk_call_per_predicate_in_sorted_order(self):
        calls = []

        class Spy(SqliteAtomStore):
            def add_rows(self, predicate, rows):
                batch = list(rows)
                calls.append(_texts(predicate, batch))
                return super().add_rows(predicate, batch)

        facts = "B(z, z).\nA(b, a).\nB(a, b).\nA(a, b)."
        seed = [["A(a, b)", "A(b, a)"], ["B(a, b)", "B(z, z)"]]
        for options in (
            {},
            {"strategy": "sql-pushdown"},
            {"workers": 2, "executor": "serial"},
        ):
            calls.clear()
            store = Spy()
            chase(parse_database(facts), parse_rules("A(x,y), B(y,w) -> C(x,w)"), store=store,
                  **options)
            assert calls[:2] == seed, options
            store.close()
