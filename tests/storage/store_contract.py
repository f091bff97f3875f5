"""The reusable ``AtomStore`` protocol-compliance harness.

Any store that wants to run under the chase engines must pass this
contract.  Subclass :class:`AtomStoreContract` in a ``test_*.py`` module
and override :meth:`make_store`; pytest collects every ``test_*`` method of
the subclass against that backend.  The assertions encode the documented
protocol semantics (``storage/atom_store.py``), including the parts the
trigger engine and the parallel executor silently rely on:

* dedup and ground-atom validation on ``add_atom``;
* null identity surviving storage (the ``_:`` encoding round-trip,
  marker-shaped constant names included — the escape regression);
* ``atoms_matching`` binding semantics (empty bindings = full relation,
  nulls bound by identity, out-of-range positions match nothing, arity
  mismatches are empty rather than errors, inserts after a lookup stay
  visible);
* ``atoms_partition`` agreeing with :func:`repro.core.indexing.atom_partition_of`
  so every store — shared or replica — assigns each atom to the same owner;
* the row half (``add_rows``/``rows_matching``/``has_row``, what the chase
  engines call) agreeing with the atom half: the same count, the same
  ``seq`` order, the same matches, nullary rows ``()`` included.

See ``tests/storage/test_store_contract.py`` for the three shipped
backends, and ARCHITECTURE.md ("Plugging in a new backend") for how to
certify a new one.
"""

from __future__ import annotations

import pytest

from repro.core.atoms import Atom
from repro.core.indexing import atom_partition_of
from repro.core.predicates import Predicate
from repro.core.terms import Constant, Null, Variable
from repro.exceptions import ValidationError
from repro.storage.atom_store import AtomStore
from repro.storage.sqlbackend import SqliteAtomStore, SqliteOverlayStore, table_name

R = Predicate("R", 2)
S = Predicate("S", 3)
EMPTY = Predicate("Empty", 1)
NULLARY = Predicate("Flag", 0)


def a(name: str) -> Constant:
    return Constant(name)


class AtomStoreContract:
    """Protocol-compliance tests shared by every ``AtomStore`` backend."""

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
        """The store holding a small two-predicate instance."""
        for atom in (
            Atom(R, (a("a"), a("b"))),
            Atom(R, (a("a"), a("c"))),
            Atom(R, (a("b"), a("c"))),
            Atom(S, (a("a"), a("b"), a("b"))),
        ):
            store.add_atom(atom)
        return store

    # ------------------------------------------------------------------ #
    # Protocol shape and mutation

    def test_implements_the_protocol(self, store):
        assert isinstance(store, AtomStore)

    def test_add_atom_deduplicates(self, store):
        atom = Atom(R, (a("a"), a("b")))
        assert store.add_atom(atom)
        assert not store.add_atom(atom)
        assert store.atom_count() == 1
        assert store.has_atom(atom)
        assert list(store.iter_atoms()) == [atom]

    def test_add_atom_rejects_non_ground(self, store):
        with pytest.raises(ValidationError):
            store.add_atom(Atom(R, (Variable("x"), a("b"))))
        assert store.atom_count() == 0

    def test_nullary_atoms(self, store):
        atom = Atom(NULLARY, ())
        assert store.add_atom(atom)
        assert not store.add_atom(atom)
        assert store.has_atom(atom)
        assert store.predicate_cardinality(NULLARY) == 1
        assert list(store.atoms_matching(NULLARY)) == [atom]

    # ------------------------------------------------------------------ #
    # Null identity and the `_:` encoding round-trip

    def test_nulls_survive_storage(self, store):
        atom = Atom(R, (a("a"), Null("n1")))
        store.add_atom(atom)
        assert store.has_atom(atom)
        assert not store.has_atom(Atom(R, (a("a"), a("n1"))))
        assert set(store.iter_atoms()) == {atom}

    def test_marker_shaped_constants_round_trip(self, store):
        # Regression: a Constant whose own name starts with the null marker
        # "_:" (or the escape marker "_e:") must come back as that Constant,
        # never mutate into a Null — on every backend.
        tricky = [
            Atom(R, (a("_:x"), Null("x"))),
            Atom(R, (a("_e:x"), a("_:_e:y"))),
            Atom(R, (Null("_:n"), a("_e:_:z"))),
        ]
        for atom in tricky:
            assert store.add_atom(atom)
        assert set(store.iter_atoms()) == set(tricky)
        for atom in tricky:
            assert store.has_atom(atom)
        # The null and the same-named constant stay distinct atoms.
        assert not store.has_atom(Atom(R, (a("x"), Null("x"))))

    # ------------------------------------------------------------------ #
    # Queries

    def test_atoms_with_predicate(self, loaded):
        assert set(loaded.atoms_with_predicate(R)) == {
            Atom(R, (a("a"), a("b"))),
            Atom(R, (a("a"), a("c"))),
            Atom(R, (a("b"), a("c"))),
        }
        assert list(loaded.atoms_with_predicate(EMPTY)) == []

    def test_atoms_matching_bindings(self, loaded):
        assert set(loaded.atoms_matching(R)) == set(loaded.atoms_with_predicate(R))
        assert set(loaded.atoms_matching(R, {0: a("a")})) == {
            Atom(R, (a("a"), a("b"))),
            Atom(R, (a("a"), a("c"))),
        }
        assert list(loaded.atoms_matching(R, {0: a("a"), 1: a("c")})) == [
            Atom(R, (a("a"), a("c")))
        ]
        assert list(loaded.atoms_matching(R, {1: a("z")})) == []
        assert list(loaded.atoms_matching(EMPTY, {0: a("a")})) == []

    def test_empty_bindings_select_the_whole_relation(self, loaded):
        assert set(loaded.atoms_matching(R, {})) == set(loaded.atoms_with_predicate(R))

    def test_atoms_matching_binds_nulls_by_identity(self, store):
        with_null = Atom(R, (a("a"), Null("n")))
        with_constant = Atom(R, (a("a"), a("n")))
        store.add_atom(with_null)
        store.add_atom(with_constant)
        assert list(store.atoms_matching(R, {1: Null("n")})) == [with_null]
        assert list(store.atoms_matching(R, {1: a("n")})) == [with_constant]
        assert list(store.atoms_matching(R, {1: Null("m")})) == []

    def test_a_shared_null_joins_across_predicates(self, store):
        # The trigger engine joins on invented nulls: a null stored under one
        # predicate must look up the atoms of another that carry it.
        store.add_atom(Atom(R, (a("a"), Null("n1"))))
        store.add_atom(Atom(S, (Null("n1"), a("b"), a("c"))))
        store.add_atom(Atom(S, (Null("n2"), a("b"), a("c"))))
        assert list(store.atoms_matching(S, {0: Null("n1")})) == [
            Atom(S, (Null("n1"), a("b"), a("c")))
        ]

    def test_atoms_added_after_a_lookup_are_found(self, loaded):
        # A lookup may build a position index lazily; later inserts must
        # still reach it.
        assert len(list(loaded.atoms_matching(R, {1: a("c")}))) == 2
        late = Atom(R, (a("d"), a("c")))
        assert loaded.add_atom(late)
        assert late in set(loaded.atoms_matching(R, {1: a("c")}))
        assert loaded.predicate_cardinality(R) == 4

    def test_has_atom_of_an_unknown_relation_is_false(self, loaded):
        assert not loaded.has_atom(Atom(EMPTY, (a("a"),)))
        assert not loaded.has_atom(Atom(Predicate("R", 3), (a("a"), a("b"), a("c"))))
        assert not loaded.has_atom(Atom(NULLARY, ()))

    def test_iter_atoms_is_the_union_of_the_predicate_scans(self, loaded):
        scanned = [
            atom
            for predicate in loaded.predicates()
            for atom in loaded.atoms_with_predicate(predicate)
        ]
        assert sorted(loaded.iter_atoms()) == sorted(scanned)

    def test_atoms_matching_out_of_range_position_is_empty(self, loaded):
        assert list(loaded.atoms_matching(R, {7: a("a")})) == []

    def test_arity_mismatch_is_empty_not_error(self, loaded):
        other = Predicate("R", 3)
        assert list(loaded.atoms_matching(other)) == []
        assert loaded.predicate_cardinality(other) == 0

    def test_predicates_and_cardinalities(self, loaded):
        assert set(loaded.predicates()) == {R, S}
        assert loaded.predicate_cardinality(R) == 3
        assert loaded.predicate_cardinality(S) == 1
        assert loaded.predicate_cardinality(EMPTY) == 0
        assert loaded.atom_count() == 4
        assert len(list(loaded.iter_atoms())) == 4

    # ------------------------------------------------------------------ #
    # Rows ≡ atoms (the chase engines' access path)

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
        source = table
        if isinstance(store, SqliteOverlayStore):
            # The overlay's rows: the base snapshot ∪ the in-memory delta.
            parts = [f"SELECT {columns}, seq FROM main.{table}"]
            if predicate.name in store._base_predicates:
                parts.append(
                    f"SELECT {columns}, seq FROM base.{table} "
                    f"WHERE seq <= {store._base_snapshot_seq}"
                )
            source = f"({' UNION ALL '.join(parts)})"
        return store.query(f"SELECT {columns} FROM {source} ORDER BY seq")

    def test_add_rows_matches_an_add_atom_loop(self, store, tmp_path):
        twin_path = tmp_path / "twin"
        twin_path.mkdir()
        twin = self.make_store(twin_path)
        try:
            store.add_atom(Atom(R, (a("a"), a("b"))))
            twin.add_atom(Atom(R, (a("a"), a("b"))))
            added = store.add_rows(R, self.ROWS)
            looped = sum(twin.add_atom(Atom(R, row)) for row in self.ROWS)
            assert added == looped == 3
            assert store.add_rows(R, []) == 0
            assert store.atom_count() == twin.atom_count() == 4
            assert set(store.iter_atoms()) == set(twin.iter_atoms())
            assert self._by_seq(store, R) == self._by_seq(twin, R)
        finally:
            close = getattr(twin, "close", None)
            if close is not None:
                close()

    def test_rows_matching_agrees_with_atoms_matching(self, store):
        store.add_rows(R, self.ROWS)
        store.add_rows(S, [(a("a"), a("b"), a("b")), (a("a"), Null("n"), a("b"))])
        for predicate, bindings in (
            (R, None), (R, {}), (R, {0: a("a")}), (R, {1: Null("n")}), (R, {0: a("b"), 1: a("c")}),
            (R, {0: a("z")}), (R, {7: a("a")}), (S, {0: a("a"), 2: a("b")}), (S, {1: Null("n")}),
            (EMPTY, {0: a("a")}), (Predicate("R", 3), None),
        ):
            rows = store.rows_matching(predicate, bindings)
            atoms = store.atoms_matching(predicate, bindings)
            assert sorted(Atom(predicate, row) for row in rows) == sorted(atoms), bindings
            assert len(list(rows)) == len(set(rows))

    def test_has_row_agrees_with_has_atom(self, store):
        store.add_rows(R, self.ROWS)
        for predicate, row in (
            (R, (a("a"), Null("n"))), (R, (a("a"), a("n"))), (R, (Null("n"), a("a"))),
            (EMPTY, (a("a"),)), (S, (a("a"), a("b"), a("c"))),
        ):
            assert store.has_row(predicate, row) == store.has_atom(Atom(predicate, row))
        assert store.has_row(R, (a("a"), Null("n")))
        assert not store.has_row(Predicate("R", 3), (a("a"), a("b"), a("c")))

    def test_nullary_rows(self, store):
        assert store.add_rows(NULLARY, [(), ()]) == 1
        assert store.add_rows(NULLARY, [()]) == 0
        assert store.has_row(NULLARY, ())
        assert list(store.rows_matching(NULLARY)) == [()]
        assert list(store.atoms_matching(NULLARY)) == [Atom(NULLARY, ())]
        assert store.predicate_cardinality(NULLARY) == 1

    def test_add_rows_rejects_non_ground_and_misfit_rows(self, store):
        with pytest.raises(ValidationError):
            store.add_rows(R, [(Variable("x"), a("b"))])
        with pytest.raises(ValidationError):
            store.add_rows(R, [(a("a"),)])
        assert store.atom_count() == 0

    # ------------------------------------------------------------------ #
    # Partitioned scans (the parallel executor's round-0 access path)

    @pytest.mark.parametrize("key_positions", [(), (0,), (1,), (0, 1)])
    @pytest.mark.parametrize("n_partitions", [1, 2, 3])
    def test_atoms_partition_is_a_disjoint_cover(self, loaded, key_positions, n_partitions):
        everything = set(loaded.atoms_with_predicate(R))
        seen = []
        for index in range(n_partitions):
            part = list(loaded.atoms_partition(R, key_positions, n_partitions, index))
            assert len(part) == len(set(part))
            for atom in part:
                # Ownership must agree with the shared stable hash, or
                # replicas and the coordinator would disagree.
                assert atom_partition_of(atom, key_positions, n_partitions) == index
            seen.extend(part)
        assert set(seen) == everything
        assert len(seen) == len(everything)

    def test_partition_sizes_sum_to_the_cardinality(self, store):
        for i in range(40):
            store.add_atom(Atom(R, (a(f"c{i % 7}"), a(f"c{i}"))))
        sizes = [len(list(store.atoms_partition(R, (0,), 4, index))) for index in range(4)]
        assert sum(sizes) == store.predicate_cardinality(R) == 40

    def test_nullary_atom_has_exactly_one_owner(self, store):
        atom = Atom(NULLARY, ())
        store.add_atom(atom)
        owners = [
            index for index in range(3) if list(store.atoms_partition(NULLARY, (), 3, index))
        ]
        assert owners == [atom_partition_of(atom, (), 3)]

    def test_atoms_partition_of_unknown_predicate_is_empty(self, loaded):
        assert list(loaded.atoms_partition(EMPTY, (), 2, 0)) == []

    def test_atoms_partition_with_nulls(self, store):
        atoms = {Atom(R, (Null(f"n{i}"), a("b"))) for i in range(6)}
        for atom in atoms:
            store.add_atom(atom)
        collected = set()
        for index in range(3):
            collected.update(store.atoms_partition(R, (0,), 3, index))
        assert collected == atoms
