"""Property suite for the process pool's int frames (``chase/parallel.py``).

The coordinator-merge control pipes carry no ``Atom`` or ``Term``: both ends
of a pipe grow one symbol table in lock-step (:class:`_Wire`), seed chunks,
deltas and reports are runs of ints over it, and a fired trigger is a value
row the coordinator turns back into key and head rows through the rule's
``FiringPlan``.  Three families of properties:

* **codec** — any conversation of ``(lead, terms)`` rows round-trips, the two
  tables stay equal symbol for symbol, and wires sharing an intern table hold
  one object per symbol;
* **firing-plan halves** — ``head_rows(values(key))`` is the head under the
  value row's substitution and ``row_key(values)`` is ``key``, in both null
  scopes;
* **end to end** — over random programs the traffic of a real process pool
  replays into the coordinator's tables, and a program pinning the cases
  that are easy to get wrong chases byte-identically to the serial engine in
  every variant × replica kind × matching strategy.

Run with ``HYPOTHESIS_PROFILE=ci`` for the pinned 200-example sweep.
"""

import pytest
from hypothesis import given, note
from hypothesis import strategies as st

from repro.chase import parallel
from repro.chase.engine import chase
from repro.chase.matching import variable_slots
from repro.chase.parallel import _Wire, parallel_chase
from repro.chase.result import ChaseLimits
from repro.chase.triggers import FiringPlan
from repro.core.atoms import Atom
from repro.core.parser import parse_database, parse_rules
from repro.core.predicates import Predicate
from repro.core.terms import Constant, Null, NullFactory
from repro.obs import ListTraceSink, Tracer

from tests.helpers import chase_result_fingerprint as fingerprint
from tests.property.strategies import chase_programs, describe_program, general_tgds

#: Names that collide under any string encoding of a term: null-shaped and
#: quoted constants, case twins, and one name in both term classes.
NAMES = ("a", "A", "_:a", "_:n_1", 'qu"ote', "it's", "back\\slash", "new\nline", "naïve-Ω", "n_1")
TERMS = tuple(cls(name) for name in NAMES for cls in (Constant, Null))
LIMITS = ChaseLimits(max_atoms=400, max_rounds=6)


def _ints_only(runs):
    return all(
        type(lead) is int and type(count) is int and all(type(i) is int for i in flat)
        for lead, count, flat in runs
    )


@st.composite
def conversations(draw):
    """Messages of equal-width-per-lead rows; widths 0..3, leads reused."""
    widths = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    row = st.integers(0, len(widths) - 1).flatmap(
        lambda lead: st.tuples(
            st.just(lead),
            st.lists(st.sampled_from(TERMS), min_size=widths[lead], max_size=widths[lead]),
        )
    )
    return draw(st.lists(st.lists(row, max_size=12), min_size=1, max_size=8))


class TestCodec:
    @given(conversations())
    def test_a_request_response_conversation_round_trips_in_lock_step(self, messages):
        ends = (_Wire(), _Wire())
        for turn, rows in enumerate(messages):
            sender, receiver = ends[turn % 2], ends[1 - turn % 2]
            runs = sender.encode(rows)
            assert _ints_only(runs)
            fresh = sender.take_fresh()
            assert all(isinstance(arg, str) for _, args in fresh for arg in args)
            receiver.absorb(fresh)
            assert list(receiver.decode(runs)) == [(lead, tuple(terms)) for lead, terms in rows]
            assert sender.symbols == receiver.symbols
            assert list(map(type, sender.symbols)) == list(map(type, receiver.symbols))
            assert sender.take_fresh() == []  # an entry rides exactly one message

    @given(st.lists(st.sampled_from(TERMS), min_size=1, max_size=8))
    def test_atoms_round_trip_and_a_coordinator_interns_across_workers(self, terms):
        atoms = [Atom(Predicate("P", len(terms)), terms), Atom(Predicate("p", 0), ())]
        interned = {}
        to_a, to_b = _Wire(interned), _Wire(interned)
        worker_a, worker_b = _Wire(), _Wire()
        rows = {atom.predicate: [atom.terms] for atom in atoms}
        # worker A invents the symbols; the coordinator seeds them to worker B
        runs = worker_a.encode_atoms(atoms)
        to_a.absorb(worker_a.take_fresh())
        decoded = to_a.decode_rows(runs)
        assert decoded == rows
        runs = to_b.encode_rows(decoded)
        worker_b.absorb(to_b.take_fresh())
        assert worker_b.decode_rows(runs) == rows
        # a second worker reporting the same symbols yields the same objects
        runs = worker_b.encode([(0, terms)])
        assert worker_b.take_fresh() == []
        ((_, again),) = to_b.decode(runs)
        (first_row,) = decoded[atoms[0].predicate]
        assert all(one is other for one, other in zip(again, first_row))


class TestFiringPlanHalves:
    @given(general_tgds(), st.sampled_from(("frontier", "homomorphism")), st.data())
    def test_head_rows_substitute_the_value_row_and_a_row_knows_its_key(self, tgd, scope, data):
        plan = FiringPlan(tgd, 3, scope)
        mapping = {
            variable: data.draw(st.sampled_from(TERMS)) for variable in tgd.body_variables()
        }
        key = plan.key(tuple(mapping[variable] for variable in variable_slots(tgd.body)))
        assert key == (3, tuple(mapping[variable] for variable in plan.variables))
        values = plan.values(key, NullFactory())
        existential = sorted(tgd.existential_variables(), key=lambda variable: variable.name)
        assert len(values) == len(plan.variables) + len(existential)
        assert plan.row_key(values) == key
        images = dict(zip(list(plan.variables) + existential, values))
        assert [Atom(*head) for head in plan.head_rows(values)] == [
            atom.substitute(images) for atom in tgd.head
        ]


def _round_counts(events):
    return [
        (event["round"], event["considered"], event["fired"], event["atoms_created"])
        for event in events
        if event["type"] == "round"
    ]


def _spy_traffic(monkeypatch):
    """Record, per worker, the fresh-symbol lists of every control-pipe
    message in wire order, and every object that crossed."""
    traffic, pools = {}, []
    real_send, real_decode = parallel._ProcessPool._send, parallel._ProcessPool._decode_report

    def send(pool, worker_id, message):
        if message[0] in ("seed", "delta"):
            traffic.setdefault(worker_id, []).append((message[1], message[2:]))
        return real_send(pool, worker_id, message)

    def decode(pool, worker_id, report):
        pools.append(pool)
        traffic.setdefault(worker_id, []).append((report[0], report[1:3]))
        return real_decode(pool, worker_id, report)

    monkeypatch.setattr(parallel._ProcessPool, "_send", send)
    monkeypatch.setattr(parallel._ProcessPool, "_decode_report", decode)
    return traffic, pools


class TestEndToEnd:
    @given(chase_programs(), st.sampled_from(("oblivious", "semi-oblivious", "restricted")))
    def test_the_traffic_alone_rebuilds_the_coordinators_tables(self, program, variant):
        database, tgds = program
        note(describe_program(database, tgds))
        with pytest.MonkeyPatch.context() as monkeypatch:
            traffic, pools = _spy_traffic(monkeypatch)
            result = parallel_chase(
                database, tgds, variant=variant, workers=2, limits=LIMITS, executor="process"
            )
        assert fingerprint(result) == fingerprint(
            chase(database, tgds, variant=variant, limits=LIMITS)
        )
        for worker_id, messages in traffic.items():
            shadow = _Wire()
            for fresh, frames in messages:
                shadow.absorb(fresh)
                assert all(_ints_only(runs) for runs in frames)
                for runs in frames:
                    list(shadow.decode(runs))  # every id is defined by now
            if pools:
                wire = pools[-1]._wires[worker_id]
                assert shadow.symbols == wire.symbols
                assert list(map(type, shadow.symbols)) == list(map(type, wire.symbols))

    #: One program, disjoint vocabularies, each rule group a pinned case.
    PINNED_RULES = """
        E(x) -> E(z)
        H(x) -> K(x,x)
        B(x,y) -> C(y,x)
        B(x,y), D(y,z) -> F(x,z)
        A(x,y) -> B(y,x)
        N(x,y) -> M(y,z)
        M(x,y) -> N(y,x)
        W(x) -> V(x,z)
    """
    PINNED_FACTS = (
        'E(a).\nH(a).\nH(b).\nN(a,b).\nN(b,c).\nN(c,a).\nN(d,d).\n'
        'W("_:n_1").\nW(n_1).\nW(a).\nW("A").\nW("qu""ote").\nW("it\'s").\n'
        + "".join(f"A(a{i},a{i + 1}).\nD(a{i},a{(i * 3) % 5}).\n" for i in range(5))
    )

    @pytest.mark.parametrize("variant", ("oblivious", "semi-oblivious", "restricted"))
    @pytest.mark.parametrize(
        "backend,strategy",
        (
            ("instance", "indexed"),
            ("sqlite", "indexed"),
            ("sqlite", "sql-pushdown"),
            ("sqlite-file", "indexed"),
            ("sqlite-file", "sql-pushdown"),
        ),
    )
    def test_the_pinned_cases_chase_identically_on_every_replica_kind(
        self, tmp_path, variant, backend, strategy
    ):
        """Empty witness (``E``: zero-width rows, under restricted a
        zero-width *skipped* row), a head-only predicate under restricted
        (``K``), a predicate seeding a linear and a join body (``B``), nulls
        invented on one worker and seeded to another (``N``/``M``, 3
        workers), and constants that look like nulls, differ in case, or
        need escaping (``W``)."""
        database, tgds = parse_database(self.PINNED_FACTS), parse_rules(self.PINNED_RULES)
        expected = fingerprint(chase(database, tgds, variant=variant, limits=LIMITS))
        if backend == "sqlite-file":
            backend = f"sqlite:{tmp_path / 'pinned.db'}"
        sink = ListTraceSink()
        result = parallel_chase(
            database, tgds, variant=variant, workers=3, limits=LIMITS, executor="process",
            backend=backend, strategy=strategy, tracer=Tracer(sink),
        )
        assert fingerprint(result) == expected
        close = getattr(result.store, "close", None)
        if close is not None:
            close()
        # skipped rows count as considered, exactly as the in-process pool counts them
        local = ListTraceSink()
        parallel_chase(
            database, tgds, variant=variant, workers=3, limits=LIMITS, executor="serial",
            tracer=Tracer(local),
        )
        assert _round_counts(sink.events) == _round_counts(local.events)
