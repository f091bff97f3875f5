"""Property-based differential conformance: engines, backends, checkers.

Three families of properties, all over random programs from
``tests/property/strategies.py``:

* **engine conformance** — the naive reference chase, the indexed
  serial engine, and the hash-partitioned parallel executor (every pool
  kind) produce the *same* ``ChaseResult``: termination verdict, round and
  trigger counts, and the exact instance, null names included;
* **backend conformance** — the sqlite store chases to the
  same result as the in-memory instance, serial and parallel, and the
  ``"sql-pushdown"`` strategy (whole compiled set-based rounds, serial)
  agrees with the in-memory engines;
  lazy results (``materialize=False``) stay byte-identical to eager ones,
  both read through the store view and after on-demand materialization;
* **oracle conformance** — on inputs where the materialization baseline is
  conclusive, ``IsChaseFinite[L]`` returns the same verdict.

Failures print the shrunk program as parseable rule/fact text via
:func:`strategies.describe_program`.

Run with ``HYPOTHESIS_PROFILE=ci`` for the pinned 200-example CI sweep.
"""

import tempfile

from hypothesis import given, note
from hypothesis import strategies as st

from repro.chase.engine import chase, make_backend_store
from repro.chase.parallel import parallel_chase
from repro.chase.result import ChaseLimits
from repro.fuzz.reference import reference_chase
from repro.termination.linear import is_chase_finite_l
from repro.termination.materialization import is_chase_finite_materialization

from tests.helpers import chase_result_fingerprint as fingerprint
from tests.property.strategies import (
    chase_programs,
    describe_program,
    linear_chase_programs,
)

#: Small budget: the vocabulary is tiny, so either the chase reaches its
#: fixpoint quickly or the budgeted prefix is compared instead — both are
#: deterministic, so conformance is checkable either way.
LIMITS = ChaseLimits(max_atoms=300, max_rounds=10)

VARIANTS = ("oblivious", "semi-oblivious", "restricted")


def assert_lazy_matches(lazy, expected_fingerprint, label):
    """A ``materialize=False`` result must match the eager fingerprint both
    through the store view (before materialization) and on demand."""
    assert not lazy.is_materialized, f"{label}: materialize=False materialized eagerly"
    assert lazy.size() == len(expected_fingerprint[-1]), f"{label}: lazy size"
    assert tuple(sorted(str(atom) for atom in lazy.view)) == expected_fingerprint[-1], (
        f"{label}: lazy view != eager instance"
    )
    assert fingerprint(lazy) == expected_fingerprint, (
        f"{label}: materialized-on-demand != eager"
    )


class TestEngineConformance:
    @given(chase_programs(), st.sampled_from(VARIANTS))
    def test_parallel_equals_serial_equals_reference(self, program, variant):
        database, tgds = program
        note(describe_program(database, tgds))
        expected = fingerprint(reference_chase(database, tgds, variant, LIMITS))

        indexed = chase(database, tgds, variant=variant, limits=LIMITS)
        assert fingerprint(indexed) == expected, "indexed serial != reference"

        for workers, executor in (
            (1, "serial"),
            (2, "serial"),
            (3, "serial"),
            (2, "process"),  # replicas, pipes, and pickling per example
        ):
            result = parallel_chase(
                database,
                tgds,
                variant=variant,
                workers=workers,
                limits=LIMITS,
                executor=executor,
            )
            assert fingerprint(result) == expected, (
                f"parallel(workers={workers}, executor={executor}) != reference"
            )

    @given(chase_programs(), st.sampled_from(VARIANTS))
    def test_sqlite_backend_conforms(self, program, variant):
        database, tgds = program
        note(describe_program(database, tgds))
        expected = fingerprint(
            chase(database, tgds, variant=variant, limits=LIMITS)
        )
        serial = chase(
            database, tgds, variant=variant, limits=LIMITS, backend="sqlite"
        )
        assert fingerprint(serial) == expected, "sqlite serial != instance"
        assert serial.store.atom_count() == len(serial.instance)

        lazy = chase(
            database,
            tgds,
            variant=variant,
            limits=LIMITS,
            backend="sqlite",
            materialize=False,
        )
        assert_lazy_matches(lazy, expected, "sqlite lazy")

        for workers, executor in ((2, "serial"), (3, "serial"), (2, "process")):
            # materialize=False across worker counts: the lazy result must
            # stay byte-identical to the eager serial instance too.
            parallel = parallel_chase(
                database,
                tgds,
                variant=variant,
                workers=workers,
                limits=LIMITS,
                backend="sqlite",
                executor=executor,
                materialize=False,
            )
            assert_lazy_matches(
                parallel,
                expected,
                f"sqlite parallel(workers={workers}, executor={executor})",
            )

        # A persistent file: process replicas are in-memory all the same,
        # seeded from the file's rows.
        with tempfile.TemporaryDirectory() as directory:
            store = make_backend_store(f"sqlite:{directory}/chase.db")
            parallel = parallel_chase(
                database,
                tgds,
                variant=variant,
                workers=2,
                limits=LIMITS,
                store=store,
                executor="process",
            )
            assert fingerprint(parallel) == expected, "sqlite file != instance"
            store.close()

    @given(chase_programs(), st.sampled_from(VARIANTS))
    def test_four_worker_pools_conform(self, program, variant):
        """Four workers — more partitions than most random programs have
        join keys — over every store a pool can run against, lazy results
        included."""
        database, tgds = program
        note(describe_program(database, tgds))
        expected = fingerprint(chase(database, tgds, variant=variant, limits=LIMITS))
        for executor, backend in (
            ("serial", "instance"),
            ("serial", "sqlite"),  # in-process workers share the coordinator's store
        ):
            result = parallel_chase(
                database,
                tgds,
                variant=variant,
                workers=4,
                limits=LIMITS,
                backend=backend,
                executor=executor,
            )
            assert fingerprint(result) == expected, f"{executor} {backend} workers=4"
        lazy = parallel_chase(
            database,
            tgds,
            variant=variant,
            workers=4,
            limits=LIMITS,
            backend="sqlite",
            executor="process",
            materialize=False,
        )
        assert_lazy_matches(lazy, expected, "sqlite process(workers=4)")

    @given(chase_programs(), st.sampled_from(VARIANTS))
    def test_sql_pushdown_conforms(self, program, variant):
        """The compiled set-based strategy: whole rounds execute inside
        SQLite with in-SQL null invention — and the ChaseResult must stay
        byte-identical to the in-memory instance chase, counts and null
        names included, eager and lazy."""
        database, tgds = program
        note(describe_program(database, tgds))
        expected = fingerprint(
            chase(database, tgds, variant=variant, limits=LIMITS)
        )

        pushed = chase(
            database,
            tgds,
            variant=variant,
            limits=LIMITS,
            backend="sqlite",
            strategy="sql-pushdown",
        )
        assert fingerprint(pushed) == expected, "sql-pushdown serial != instance"
        assert pushed.store.atom_count() == len(pushed.instance)

        lazy = chase(
            database,
            tgds,
            variant=variant,
            limits=LIMITS,
            backend="sqlite",
            strategy="sql-pushdown",
            materialize=False,
        )
        assert_lazy_matches(lazy, expected, "sql-pushdown lazy")


class TestTracingTransparency:
    @given(chase_programs(), st.sampled_from(VARIANTS))
    def test_traced_equals_untraced(self, program, variant):
        """Tracing must never perturb the chase: with a live tracer attached
        the ``ChaseResult`` stays byte-identical to the untraced run — for
        the serial engines on every backend, the compiled pushdown, and the
        parallel executor's in-process and process pools; that result is the
        reference chase's — and the per-round events sum exactly to the run
        totals."""
        from repro.obs import ListTraceSink, Tracer, round_totals

        database, tgds = program
        note(describe_program(database, tgds))
        expected = fingerprint(reference_chase(database, tgds, variant, LIMITS))

        for label, run in (
            (
                "indexed",
                lambda tracer: chase(
                    database, tgds, variant=variant, limits=LIMITS, tracer=tracer
                ),
            ),
            (
                "sql-pushdown",
                lambda tracer: chase(
                    database,
                    tgds,
                    variant=variant,
                    limits=LIMITS,
                    backend="sqlite",
                    strategy="sql-pushdown",
                    tracer=tracer,
                ),
            ),
            (
                "parallel",
                lambda tracer: parallel_chase(
                    database,
                    tgds,
                    variant=variant,
                    workers=2,
                    limits=LIMITS,
                    executor="serial",
                    tracer=tracer,
                ),
            ),
            (
                "parallel-process-sqlite",
                lambda tracer: parallel_chase(
                    database,
                    tgds,
                    variant=variant,
                    workers=2,
                    limits=LIMITS,
                    backend="sqlite",
                    executor="process",
                    tracer=tracer,
                ),
            ),
        ):
            sink = ListTraceSink()
            tracer = Tracer(sink, tool="chase")
            result = run(tracer)
            tracer.close()
            assert fingerprint(result) == expected, f"traced {label} != untraced reference"
            fired, atoms = round_totals(sink.events)
            assert fired == result.triggers_fired, f"{label}: round-event fired sum"
            assert atoms == result.atoms_created, f"{label}: round-event atom sum"


class TestTerminationOracleConformance:
    @given(linear_chase_programs())
    def test_checker_agrees_with_materialization_oracle(self, program):
        database, tgds = program
        note(describe_program(database, tgds))
        oracle = is_chase_finite_materialization(database, tgds, max_atoms=2_000)
        verdict = is_chase_finite_l(database, tgds).finite
        assert isinstance(verdict, bool)
        if oracle.conclusive:
            assert verdict == oracle.finite, (
                f"IsChaseFinite[L] said {verdict} but materializing the chase "
                f"proved {oracle.finite} ({oracle.atoms_materialized} atoms, "
                f"bound {oracle.bound})"
            )

    @given(linear_chase_programs())
    def test_parallel_chase_respects_conclusive_finite_verdicts(self, program):
        database, tgds = program
        note(describe_program(database, tgds))
        oracle = is_chase_finite_materialization(database, tgds, max_atoms=2_000)
        if not (oracle.conclusive and oracle.finite):
            return
        result = parallel_chase(
            database,
            tgds,
            workers=2,
            limits=ChaseLimits(max_atoms=4_000, max_rounds=None),
            executor="serial",
        )
        assert result.terminated
        # The oracle reports the size of the materialised fixpoint; the
        # parallel chase must land on the same model.
        assert len(result.instance) == oracle.atoms_materialized
