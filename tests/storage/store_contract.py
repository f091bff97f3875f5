"""The reusable ``AtomStore`` protocol-compliance harness.

Any store that wants to run under the chase engines must pass this
contract.  Subclass :class:`AtomStoreContract` and
:class:`InstanceViewContract` in a ``test_*.py`` module and override
:meth:`StoreHarness.make_store`; pytest collects every ``test_*`` method of
the subclass against that backend.  The assertions encode the documented
protocol semantics (``storage/atom_store.py``), including the parts the
trigger engine and the parallel executor silently rely on.

:class:`AtomStoreContract` holds the seven row-level members a backend
provides:

* dedup and ground-row validation on ``add_rows``, in one batch or one
  row at a time, with the same ``seq`` order either way;
* null identity surviving storage (the ``_:`` encoding round-trip,
  marker-shaped constant names included — the escape regression);
* ``rows_matching`` binding semantics (empty bindings = full relation,
  nulls bound by identity, out-of-range positions match nothing, arity
  mismatches are empty rather than errors, inserts after a lookup stay
  visible) and ``has_row`` answering ``False`` — never raising — for an
  unknown relation or a row of the wrong width;
* ``iter_atoms`` decoding exactly the rows of the predicate scans;
* :func:`repro.core.indexing.partition_rows` over ``rows_matching``
  splitting a relation into disjoint per-worker shares, so the coordinator
  and every replica assign each row to the same owner.

:class:`InstanceViewContract` holds the atom adapter over the same store:
:class:`~repro.storage.atom_store.InstanceView` reads membership,
per-predicate atoms, sorted iteration, terms and the materialised
:class:`~repro.core.instances.Instance` through the rows, so every backend
answers them alike.

See ``tests/storage/test_store_contract.py`` for the shipped
backends, and ARCHITECTURE.md ("Plugging in a new backend") for how to
certify a new one.
"""

from __future__ import annotations

import pytest

from repro.core.atoms import Atom
from repro.core.indexing import partition_rows, row_partition_of
from repro.core.instances import Instance
from repro.core.predicates import Predicate
from repro.core.terms import Constant, Null, Variable
from repro.exceptions import ValidationError
from repro.storage.atom_store import AtomStore, InstanceView
from repro.storage.sqlbackend import SqliteAtomStore, table_name

R = Predicate("R", 2)
S = Predicate("S", 3)
EMPTY = Predicate("Empty", 1)
NULLARY = Predicate("Flag", 0)


def a(name: str) -> Constant:
    return Constant(name)


#: The small two-predicate instance of the ``loaded`` fixture.
LOADED = (
    Atom(R, (a("a"), a("b"))),
    Atom(R, (a("a"), a("c"))),
    Atom(R, (a("b"), a("c"))),
    Atom(S, (a("a"), a("b"), a("b"))),
)


def add(store, *atoms: Atom) -> int:
    """Insert *atoms* one row at a time; return how many were new."""
    return sum(store.add_rows(atom.predicate, [atom.terms]) for atom in atoms)


class StoreHarness:
    """The backend hook and the fixtures both contracts share."""

    def make_store(self, tmp_path):
        """Build a fresh, empty store (override per backend)."""
        raise NotImplementedError

    @pytest.fixture
    def store(self, tmp_path):
        store = self.make_store(tmp_path)
        yield store
        close = getattr(store, "close", None)
        if close is not None:
            close()

    @pytest.fixture
    def loaded(self, store):
        """The store holding :data:`LOADED`."""
        add(store, *LOADED)
        return store


class AtomStoreContract(StoreHarness):
    """Row-protocol compliance tests shared by every ``AtomStore`` backend."""

    # ------------------------------------------------------------------ #
    # Protocol shape and mutation

    def test_implements_the_protocol(self, store):
        assert isinstance(store, AtomStore)

    def test_add_rows_deduplicates(self, store):
        row = (a("a"), a("b"))
        assert store.add_rows(R, [row]) == 1
        assert store.add_rows(R, [row]) == 0
        assert store.atom_count() == 1
        assert store.has_row(R, row)
        assert list(store.rows_matching(R)) == [row]
        assert list(store.iter_atoms()) == [Atom(R, row)]

    def test_add_rows_rejects_non_ground_and_misfit_rows(self, store):
        with pytest.raises(ValidationError):
            store.add_rows(R, [(Variable("x"), a("b"))])
        with pytest.raises(ValidationError):
            store.add_rows(R, [(a("a"),)])
        assert store.atom_count() == 0

    def test_nullary_rows(self, store):
        assert store.add_rows(NULLARY, [(), ()]) == 1
        assert store.add_rows(NULLARY, [()]) == 0
        assert store.has_row(NULLARY, ())
        assert list(store.rows_matching(NULLARY)) == [()]
        assert list(store.iter_atoms()) == [Atom(NULLARY, ())]
        assert store.predicate_cardinality(NULLARY) == 1

    # ------------------------------------------------------------------ #
    # Null identity and the `_:` encoding round-trip

    def test_nulls_survive_storage(self, store):
        row = (a("a"), Null("n1"))
        store.add_rows(R, [row])
        assert store.has_row(R, row)
        assert not store.has_row(R, (a("a"), a("n1")))
        assert set(store.rows_matching(R)) == {row}

    def test_marker_shaped_constants_round_trip(self, store):
        # Regression: a Constant whose own name starts with the null marker
        # "_:" (or the escape marker "_e:") must come back as that Constant,
        # never mutate into a Null — on every backend.
        tricky = [
            (a("_:x"), Null("x")),
            (a("_e:x"), a("_:_e:y")),
            (Null("_:n"), a("_e:_:z")),
        ]
        assert store.add_rows(R, tricky) == 3
        assert set(store.rows_matching(R)) == set(tricky)
        for row in tricky:
            assert store.has_row(R, row)
        # The null and the same-named constant stay distinct rows.
        assert not store.has_row(R, (a("x"), Null("x")))

    # ------------------------------------------------------------------ #
    # Queries

    def test_rows_matching_bindings(self, loaded):
        assert set(loaded.rows_matching(R)) == {
            (a("a"), a("b")), (a("a"), a("c")), (a("b"), a("c")),
        }
        assert set(loaded.rows_matching(R, {0: a("a")})) == {
            (a("a"), a("b")), (a("a"), a("c")),
        }
        assert list(loaded.rows_matching(R, {0: a("a"), 1: a("c")})) == [(a("a"), a("c"))]
        assert list(loaded.rows_matching(R, {1: a("z")})) == []
        assert list(loaded.rows_matching(EMPTY, {0: a("a")})) == []

    def test_empty_bindings_select_the_whole_relation(self, loaded):
        assert set(loaded.rows_matching(R, {})) == set(loaded.rows_matching(R))
        assert set(loaded.rows_matching(R, None)) == set(loaded.rows_matching(R))

    def test_rows_matching_binds_nulls_by_identity(self, store):
        with_null = (a("a"), Null("n"))
        with_constant = (a("a"), a("n"))
        store.add_rows(R, [with_null, with_constant])
        assert list(store.rows_matching(R, {1: Null("n")})) == [with_null]
        assert list(store.rows_matching(R, {1: a("n")})) == [with_constant]
        assert list(store.rows_matching(R, {1: Null("m")})) == []

    def test_a_shared_null_joins_across_predicates(self, store):
        # The trigger engine joins on invented nulls: a null stored under one
        # predicate must look up the rows of another that carry it.
        store.add_rows(R, [(a("a"), Null("n1"))])
        store.add_rows(S, [(Null("n1"), a("b"), a("c")), (Null("n2"), a("b"), a("c"))])
        assert list(store.rows_matching(S, {0: Null("n1")})) == [(Null("n1"), a("b"), a("c"))]

    def test_rows_added_after_a_lookup_are_found(self, loaded):
        # A lookup may build a position index lazily; later inserts must
        # still reach it.
        assert len(list(loaded.rows_matching(R, {1: a("c")}))) == 2
        late = (a("d"), a("c"))
        assert loaded.add_rows(R, [late]) == 1
        assert late in set(loaded.rows_matching(R, {1: a("c")}))
        assert loaded.predicate_cardinality(R) == 4

    def test_has_row_of_an_unknown_relation_is_false(self, loaded):
        assert not loaded.has_row(EMPTY, (a("a"),))
        assert not loaded.has_row(Predicate("R", 3), (a("a"), a("b"), a("c")))
        assert not loaded.has_row(NULLARY, ())

    def test_has_row_of_a_short_row_is_false(self, loaded):
        assert not loaded.has_row(R, (a("a"),))
        assert not loaded.has_row(R, ())
        assert not loaded.has_row(S, (a("a"), a("b")))

    def test_has_row_of_a_long_row_is_false(self, loaded):
        assert not loaded.has_row(R, (a("a"), a("b"), a("b")))
        assert not loaded.has_row(S, (a("a"), a("b"), a("b"), a("b")))

    def test_iter_atoms_decodes_the_predicate_scans(self, loaded):
        scanned = [
            Atom(predicate, row)
            for predicate in loaded.predicates()
            for row in loaded.rows_matching(predicate)
        ]
        assert sorted(loaded.iter_atoms()) == sorted(scanned) == sorted(LOADED)

    def test_rows_matching_out_of_range_position_is_empty(self, loaded):
        assert list(loaded.rows_matching(R, {7: a("a")})) == []

    def test_arity_mismatch_is_empty_not_error(self, loaded):
        other = Predicate("R", 3)
        assert list(loaded.rows_matching(other)) == []
        assert loaded.predicate_cardinality(other) == 0

    def test_predicates_and_cardinalities(self, loaded):
        assert set(loaded.predicates()) == {R, S}
        assert loaded.predicate_cardinality(R) == 3
        assert loaded.predicate_cardinality(S) == 1
        assert loaded.predicate_cardinality(EMPTY) == 0
        assert loaded.atom_count() == 4
        assert len(list(loaded.iter_atoms())) == 4

    # ------------------------------------------------------------------ #
    # Batches ≡ single rows (the chase inserts a round per predicate)

    ROWS = [
        (a("b"), a("c")),
        (a("a"), Null("n")),
        (a("a"), a("b")),
        (a("b"), a("c")),  # a duplicate within the batch
        (Null("n"), a("a")),
    ]

    @staticmethod
    def _by_seq(store, predicate):
        """The relation's rows in insertion order, where the store keeps one."""
        if not isinstance(store, SqliteAtomStore):
            return None
        columns = ", ".join(f"c{position}" for position in range(predicate.arity)) or "1"
        table = f'"{table_name(predicate.name)}"'
        return store.query(f"SELECT {columns} FROM {table} ORDER BY seq")

    def test_add_rows_batch_matches_a_row_at_a_time_loop(self, store, tmp_path):
        twin_path = tmp_path / "twin"
        twin_path.mkdir()
        twin = self.make_store(twin_path)
        try:
            store.add_rows(R, [(a("a"), a("b"))])
            twin.add_rows(R, [(a("a"), a("b"))])
            added = store.add_rows(R, self.ROWS)
            looped = sum(twin.add_rows(R, [row]) for row in self.ROWS)
            assert added == looped == 3
            assert store.add_rows(R, []) == 0
            assert store.atom_count() == twin.atom_count() == 4
            assert set(store.rows_matching(R)) == set(twin.rows_matching(R))
            assert self._by_seq(store, R) == self._by_seq(twin, R)
        finally:
            close = getattr(twin, "close", None)
            if close is not None:
                close()

    def test_rows_matching_returns_each_row_once(self, store):
        store.add_rows(R, self.ROWS)
        store.add_rows(S, [(a("a"), a("b"), a("b")), (a("a"), Null("n"), a("b"))])
        everything = {Atom(R, row) for row in self.ROWS} | {
            Atom(S, (a("a"), a("b"), a("b"))), Atom(S, (a("a"), Null("n"), a("b"))),
        }
        for predicate, bindings in (
            (R, None), (R, {}), (R, {0: a("a")}), (R, {1: Null("n")}), (R, {0: a("b"), 1: a("c")}),
            (R, {0: a("z")}), (R, {7: a("a")}), (S, {0: a("a"), 2: a("b")}), (S, {1: Null("n")}),
            (EMPTY, {0: a("a")}), (Predicate("R", 3), None),
        ):
            rows = store.rows_matching(predicate, bindings)
            expected = {
                atom.terms
                for atom in everything
                if atom.predicate == predicate
                and all(
                    0 <= position < predicate.arity and atom.terms[position] == term
                    for position, term in (bindings or {}).items()
                )
            }
            assert set(rows) == expected, bindings
            assert len(list(rows)) == len(set(rows))

    # ------------------------------------------------------------------ #
    # Partition shares (the parallel executor's round-0 and seeding path)

    @staticmethod
    def _shares(store, predicate, key_positions, n_partitions):
        rows = store.rows_matching(predicate)
        return [
            partition_rows(rows, key_positions, n_partitions, index)
            for index in range(n_partitions)
        ]

    @pytest.mark.parametrize("key_positions", [(), (0,), (1,), (0, 1)])
    @pytest.mark.parametrize("n_partitions", [1, 2, 3])
    def test_partition_rows_is_a_disjoint_cover(self, loaded, key_positions, n_partitions):
        everything = set(loaded.rows_matching(R))
        seen = []
        for index, share in enumerate(self._shares(loaded, R, key_positions, n_partitions)):
            assert len(share) == len(set(share))
            for row in share:
                # Ownership must agree with the shared stable hash, or
                # replicas and the coordinator would disagree.
                assert row_partition_of(row, key_positions, n_partitions) == index
            seen.extend(share)
        assert set(seen) == everything
        assert len(seen) == len(everything)

    def test_partition_sizes_sum_to_the_cardinality(self, store):
        store.add_rows(R, [(a(f"c{i % 7}"), a(f"c{i}")) for i in range(40)])
        sizes = [len(share) for share in self._shares(store, R, (0,), 4)]
        assert sum(sizes) == store.predicate_cardinality(R) == 40

    def test_nullary_row_has_exactly_one_owner(self, store):
        store.add_rows(NULLARY, [()])
        owners = [
            index
            for index, share in enumerate(self._shares(store, NULLARY, (), 3))
            if share == [()]
        ]
        assert owners == [row_partition_of((), (), 3)]

    def test_partition_rows_of_unknown_predicate_is_empty(self, loaded):
        assert self._shares(loaded, EMPTY, (), 2) == [[], []]

    def test_partition_rows_with_nulls(self, store):
        rows = {(Null(f"n{i}"), a("b")) for i in range(6)}
        store.add_rows(R, sorted(rows, key=str))
        collected = set()
        for share in self._shares(store, R, (0,), 3):
            collected.update(share)
        assert collected == rows


class InstanceViewContract(StoreHarness):
    """The atom adapter over every backend: ``InstanceView`` reads the
    ``Instance`` API through the store's rows alone."""

    @pytest.fixture
    def view(self, loaded):
        return InstanceView(loaded)

    def test_the_view_is_a_store_over_its_store(self, view, loaded):
        assert isinstance(view, AtomStore)
        assert view.store is loaded
        assert len(view) == view.atom_count() == loaded.atom_count() == 4
        assert set(view.predicates()) == {R, S}
        assert view.predicate_cardinality(R) == 3

    def test_membership_goes_through_has_row(self, view):
        for atom in LOADED:
            assert atom in view
        assert Atom(R, (a("c"), a("a"))) not in view
        assert Atom(EMPTY, (a("a"),)) not in view
        assert Atom(Predicate("R", 3), (a("a"), a("b"), a("c"))) not in view
        assert Atom(NULLARY, ()) not in view

    def test_atoms_with_predicate(self, view):
        assert view.atoms_with_predicate(R) == frozenset(LOADED[:3])
        assert view.atoms_with_predicate(S) == frozenset(LOADED[3:])
        assert view.atoms_with_predicate(EMPTY) == frozenset()
        assert view.atoms_with_predicate(Predicate("R", 3)) == frozenset()

    def test_iteration_is_sorted_like_an_instance(self, view):
        assert list(view) == sorted(LOADED) == list(Instance(LOADED))
        assert view.atoms() == frozenset(LOADED) == frozenset(view.iter_atoms())

    def test_terms(self, store):
        add(store, Atom(R, (a("a"), Null("n1"))), Atom(S, (Null("n2"), a("b"), a("_:c"))))
        view = InstanceView(store)
        assert view.constants() == {a("a"), a("b"), a("_:c")}
        assert view.nulls() == {Null("n1"), Null("n2")}
        assert view.domain() == view.constants() | view.nulls()

    def test_to_instance_decodes_every_row(self, store):
        atoms = [
            Atom(R, (a("a"), Null("n1"))),
            Atom(R, (a("_:x"), Null("x"))),
            Atom(S, (Null("n1"), a("b"), a("_e:_:z"))),
            Atom(NULLARY, ()),
        ]
        add(store, *atoms)
        instance = InstanceView(store).to_instance()
        assert type(instance) is Instance
        assert instance == Instance(atoms)
        assert list(instance) == list(InstanceView(store)) == sorted(atoms)
        assert instance.nulls() == {Null("n1"), Null("x")}

    def test_an_empty_store_views_as_an_empty_instance(self, store):
        view = InstanceView(store)
        assert len(view) == 0 and list(view) == [] and not view.domain()
        assert view.to_instance() == Instance()

    def test_the_view_is_read_only(self, view, loaded):
        with pytest.raises(TypeError, match="read-only"):
            view.add(Atom(R, (a("x"), a("y"))))
        with pytest.raises(TypeError, match="read-only"):
            view.add_rows(R, [(a("x"), a("y"))])
        assert loaded.atom_count() == 4

    def test_the_view_follows_later_writes(self, view, loaded):
        late = Atom(R, (a("d"), a("c")))
        assert late not in view
        add(loaded, late)
        assert late in view
        assert late in view.atoms_with_predicate(R)
        assert view.to_instance() == Instance(LOADED + (late,))
