"""The lazy ``ChaseResult`` and the partition-streamed worker seeding.

Four families:

* **lazy materialization** — a store-backed result builds its in-memory
  instance at most once, only on demand, and ``materialize=False`` keeps
  counts/views working without ever decoding the fixpoint;
* **lazy == eager** — fingerprints agree between ``materialize=True`` and
  ``materialize=False`` runs on every backend, and the view iterates the
  exact sorted atoms of the materialised instance;
* **resume** — an interrupted ``--no-materialize``-style chase into a file
  resumes to the same fixpoint as an uninterrupted eager run;
* **seed streaming** — :func:`repro.chase.parallel.worker_seed_atoms`
  ships partitions for single-atom bodies, whole relations for join
  bodies (plus restricted-chase heads), and nothing for unused predicates,
  with a strictly smaller per-worker pickle than the full store.
"""

import pickle

import pytest

from repro.chase.engine import chase, make_backend_store
from repro.chase.parallel import parallel_chase, replica_seed_split, worker_seed_atoms
from repro.chase.result import ChaseLimits, ChaseResult
from repro.chase.rounds import seed_store
from repro.core.atoms import Atom
from repro.core.instances import Instance
from repro.core.parser import parse_database, parse_rules
from repro.core.predicates import Predicate
from repro.core.terms import Constant
from repro.storage.atom_store import InstanceView
from repro.storage.sqlbackend import SqliteAtomStore

from tests.helpers import chase_result_fingerprint as fingerprint

RULES = "R(x,y) -> S(y,z)\nS(x,y), R(z,x) -> T(z,y)\n"
FACTS = "R(a,b).\nR(b,a).\nR(b,c).\n"

LINEAR_RULES = "R(x,y) -> S(y,z)\nS(x,y) -> T(x,y)\n"


def _program(rules=RULES):
    return parse_database(FACTS), parse_rules(rules)


def _backend(backend, tmp_path, name):
    """Resolve ``sqlite-file`` to a fresh ``sqlite:<path>`` spec per run."""
    if backend == "sqlite-file":
        return f"sqlite:{tmp_path / name}.db"
    return backend


class TestLazyMaterialization:
    @pytest.mark.parametrize("backend", ["sqlite", "sqlite-file"])
    def test_store_backed_result_materializes_at_most_once(
        self, backend, tmp_path, monkeypatch
    ):
        database, tgds = _program()
        result = chase(
            database, tgds, backend=_backend(backend, tmp_path, "lazy"), materialize=False
        )
        assert not result.is_materialized
        calls = []
        original = InstanceView.to_instance

        def counting(view):
            calls.append(view.store)
            return original(view)

        monkeypatch.setattr(InstanceView, "to_instance", counting)
        first = result.instance
        second = result.instance
        assert first is second
        assert first is result.materialize()
        assert calls == [result.store], "instance decoded more than once"
        assert result.is_materialized

    def test_instance_backend_is_already_materialized(self):
        database, tgds = _program()
        result = chase(database, tgds, materialize=False)
        # The in-memory backend *is* the instance: nothing to decode.
        assert result.is_materialized
        assert result.instance is result.store

    def test_counts_and_views_never_materialize(self, monkeypatch):
        database, tgds = _program()
        result = chase(database, tgds, backend="sqlite", materialize=False)
        monkeypatch.setattr(
            InstanceView,
            "to_instance",
            lambda store: pytest.fail("size()/view must not materialize"),
        )
        assert result.size() == result.store.atom_count()
        assert len(result) == result.size()
        assert len(list(result.iter_atoms())) == result.size()
        view = result.view
        assert isinstance(view, InstanceView)
        assert len(view) == result.size()
        assert not result.is_materialized

    def test_eager_default_materializes_up_front(self):
        database, tgds = _program()
        assert chase(database, tgds, backend="sqlite").is_materialized
        assert parallel_chase(
            database, tgds, workers=2, backend="sqlite", executor="serial"
        ).is_materialized

    def test_result_requires_a_store(self):
        with pytest.raises(ValueError, match="store"):
            ChaseResult(terminated=True)


class TestLazyEqualsEager:
    @pytest.mark.parametrize("backend", ["instance", "sqlite", "sqlite-file"])
    def test_fingerprints_agree(self, backend, tmp_path):
        database, tgds = _program()
        eager = chase(
            database, tgds, backend=_backend(backend, tmp_path, "eager"), materialize=True
        )
        lazy = chase(
            database, tgds, backend=_backend(backend, tmp_path, "lazy"), materialize=False
        )
        # The view iterates sorted like Instance, so the comparison holds
        # before any materialization happens...
        assert tuple(sorted(str(atom) for atom in lazy.view)) == tuple(
            sorted(str(atom) for atom in eager.instance)
        )
        # ... and the on-demand instance is byte-identical too.
        assert fingerprint(lazy) == fingerprint(eager)

    def test_view_matches_instance_queries(self):
        database, tgds = _program()
        result = chase(database, tgds, backend="sqlite", materialize=False)
        view = result.view
        instance = result.instance
        assert view.atoms() == instance.atoms()
        assert view.nulls() == instance.nulls()
        assert view.constants() == instance.constants()
        assert view.domain() == instance.domain()
        assert set(view.predicates()) == set(instance.predicates())
        for predicate in view.predicates():
            assert set(view.atoms_with_predicate(predicate)) == set(
                instance.atoms_with_predicate(predicate)
            )
        some_atom = next(iter(instance))
        assert some_atom in view
        # The store-protocol delegation surface.
        assert view.store is result.store
        predicate = some_atom.predicate
        assert view.predicate_cardinality(predicate) == instance.predicate_cardinality(
            predicate
        )
        bindings = {0: some_atom.terms[0]}
        assert set(view.rows_matching(predicate, bindings)) == set(
            instance.rows_matching(predicate, bindings)
        )
        assert view.atom_count() == len(instance)
        assert set(view.iter_atoms()) == set(instance.iter_atoms())
        assert list(view) == sorted(instance)
        assert "InstanceView" in repr(view)

    def test_view_is_read_only(self):
        database, tgds = _program()
        result = chase(database, tgds, backend="sqlite", materialize=False)
        with pytest.raises(TypeError, match="read-only"):
            result.view.add(Atom(Predicate("X", 1), (Constant("a"),)))
        with pytest.raises(TypeError, match="read-only"):
            result.view.add_rows(Predicate("X", 1), [(Constant("a"),)])


class TestLazyResume:
    def test_interrupted_lazy_chase_resumes_to_the_eager_fixpoint(self, tmp_path):
        database, tgds = _program()
        eager = chase(database, tgds)
        expected_atoms = tuple(sorted(str(atom) for atom in eager.instance))

        path = str(tmp_path / "resume.db")
        store = make_backend_store(f"sqlite:{path}")
        first = chase(
            database,
            tgds,
            store=store,
            limits=ChaseLimits(max_rounds=1),
            materialize=False,
        )
        assert not first.terminated and not first.is_materialized
        store.close()

        reopened = make_backend_store(f"sqlite:{path}")
        resumed = chase(database, tgds, store=reopened, materialize=False)
        assert resumed.terminated
        assert not resumed.is_materialized
        # The resumed chase takes fewer rounds (the persisted prefix is
        # already there); the fixpoint itself — null names included — must
        # match the uninterrupted eager run atom for atom, read through the
        # lazy view.
        assert tuple(sorted(str(atom) for atom in resumed.view)) == expected_atoms
        assert resumed.size() == len(eager.instance)
        assert not resumed.is_materialized
        reopened.close()


class TestWorkerSeedStreaming:
    def _store(self, n_rows=40):
        R, U = Predicate("R", 2), Predicate("Unused", 2)
        store = Instance()
        for i in range(n_rows):
            store.add(Atom(R, (Constant(f"a{i}"), Constant(f"b{i}"))))
            store.add(Atom(U, (Constant(f"u{i}"), Constant(f"v{i}"))))
        return store

    def test_linear_rules_partition_the_seed(self):
        store = self._store()
        tgds = tuple(parse_rules(LINEAR_RULES))
        workers = 4
        seeds = [
            worker_seed_atoms(store, tgds, "semi-oblivious", workers, w)
            for w in range(workers)
        ]
        R = Predicate("R", 2)
        all_r = set(store.atoms_with_predicate(R))
        # Disjoint cover of the single-atom-body relation...
        union = set().union(*map(set, seeds))
        assert union == all_r
        assert sum(len(seed) for seed in seeds) == len(all_r)
        # ... and relations no TGD reads are not shipped at all.
        assert not any(
            atom.predicate.name == "Unused" for seed in seeds for atom in seed
        )

    def test_join_bodies_are_fully_replicated(self):
        store = self._store()
        tgds = tuple(parse_rules(RULES))
        full, partitioned = replica_seed_split(tgds, "semi-oblivious")
        names = {predicate.name for predicate in full}
        # R and S are joined by the second rule's two-atom body: every
        # replica needs both relations in full.
        assert names == {"R", "S"}
        assert {predicate.name for predicate in partitioned} == set()
        seeds = [
            worker_seed_atoms(store, tgds, "semi-oblivious", 3, w) for w in range(3)
        ]
        expected = sorted(store.atoms_with_predicate(Predicate("R", 2)))
        assert all(seed == expected for seed in seeds)

    def test_restricted_variant_replicates_head_predicates(self):
        tgds = tuple(parse_rules(LINEAR_RULES))
        full, partitioned = replica_seed_split(tgds, "restricted")
        # The head-satisfaction check probes S and T on the replica.
        assert {predicate.name for predicate in full} == {"S", "T"}
        assert {predicate.name for predicate in partitioned} == {"R"}

    def test_streamed_seed_payload_is_smaller_than_the_full_store_pickle(self):
        store = self._store(n_rows=200)
        tgds = tuple(parse_rules(LINEAR_RULES))
        workers = 4
        full_pickle = len(pickle.dumps(sorted(store.iter_atoms())))
        payloads = [
            len(pickle.dumps(tuple(
                worker_seed_atoms(store, tgds, "semi-oblivious", workers, w)
            )))
            for w in range(workers)
        ]
        assert max(payloads) < full_pickle / 2

    @pytest.mark.parametrize("rules", [RULES, LINEAR_RULES])
    @pytest.mark.parametrize("backend", ["sqlite", "sqlite-file", "sqlite-reopened"])
    def test_every_store_streams_the_seed_an_instance_streams(self, backend, rules, tmp_path):
        # Process replicas are always in-memory Instances built from this
        # stream, so a sqlite coordinator (a reopened file holding an
        # interrupted run's round-1 nulls included) must ship each worker
        # exactly the seed an Instance holding the same atoms ships.
        database, tgds = _program(rules)
        partial = chase(database, tgds, limits=ChaseLimits(max_rounds=1))
        assert partial.instance.nulls()
        atoms = sorted(partial.instance)
        reference = Instance(atoms)
        if backend == "sqlite-reopened":
            path = str(tmp_path / "seed.db")
            with SqliteAtomStore(path=path) as earlier:
                seed_store(earlier, reference)
            store = SqliteAtomStore(path=path)
        else:
            store = make_backend_store(_backend(backend, tmp_path, "seed"))
            seed_store(store, reference)
        workers = 3
        for variant in ("oblivious", "semi-oblivious", "restricted"):
            for unused in (False, True):
                seeds = [
                    worker_seed_atoms(
                        store, tgds, variant, workers, w, include_unused_share=unused
                    )
                    for w in range(workers)
                ]
                assert seeds == [
                    worker_seed_atoms(
                        reference, tgds, variant, workers, w, include_unused_share=unused
                    )
                    for w in range(workers)
                ], (variant, unused)
                if unused:
                    # With the unused share every worker owns a disjoint
                    # slice of each partitioned relation, so the union is
                    # the whole store.
                    assert set().union(*map(set, seeds)) == set(atoms)
        store.close()

    @pytest.mark.parametrize("rules", [RULES, LINEAR_RULES])
    @pytest.mark.parametrize("variant", ["oblivious", "semi-oblivious", "restricted"])
    def test_streamed_process_pool_stays_identical(self, rules, variant):
        database, tgds = _program(rules)
        expected = fingerprint(chase(database, tgds, variant=variant))
        result = parallel_chase(
            database, tgds, variant=variant, workers=3, executor="process"
        )
        assert fingerprint(result) == expected
