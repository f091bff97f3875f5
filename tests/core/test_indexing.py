"""Tests for ``repro.core.indexing``: position postings and the partition hash.

The parallel chase's coordinator and its process replicas decide who owns a
row with :func:`row_partition_of`, each in its own interpreter, so the hash
must not depend on Python's per-interpreter string hashing.
"""

import os
import subprocess
import sys

import pytest

from repro.core.indexing import partition_hash, partition_rows, post_rows, row_partition_of
from repro.core.terms import Constant, Null, Variable

ROWS = [
    (Constant(f"a{i}"), Constant(f"b{i % 3}"), Null(f"n{i % 2}")) for i in range(24)
]


class TestPartitionHash:
    def test_deterministic_and_type_tagged(self):
        terms = (Constant("a"), Null("b"))
        assert partition_hash(terms) == partition_hash((Constant("a"), Null("b")))
        # A null and a constant of the same name are different terms.
        assert partition_hash((Constant("a"),)) != partition_hash((Null("a"),))
        assert partition_hash((Constant("a"),)) != partition_hash((Variable("a"),))

    def test_order_and_arity_are_significant(self):
        a, b = Constant("a"), Constant("b")
        assert partition_hash((a, b)) != partition_hash((b, a))
        assert partition_hash((a,)) != partition_hash((a, a))

    def test_independent_of_the_interpreter_hash_seed(self):
        script = (
            "from repro.core.indexing import partition_hash\n"
            "from repro.core.terms import Constant, Null\n"
            "print(partition_hash((Constant('key'), Null('_:n1'))))\n"
        )
        expected = str(partition_hash((Constant("key"), Null("_:n1"))))
        for seed in ("1", "2"):
            environment = dict(os.environ, PYTHONHASHSEED=seed)
            environment["PYTHONPATH"] = os.pathsep.join(sys.path)
            finished = subprocess.run(
                [sys.executable, "-c", script],
                env=environment, capture_output=True, text=True, timeout=60,
            )
            assert finished.returncode == 0, finished.stderr
            assert finished.stdout.strip() == expected, f"PYTHONHASHSEED={seed}"


class TestRowPartitionOf:
    @pytest.mark.parametrize("n_partitions", (1, 2, 3, 4, 7))
    def test_every_row_has_one_owner_in_range(self, n_partitions):
        for row in ROWS:
            owner = row_partition_of(row, (0,), n_partitions)
            assert 0 <= owner < n_partitions
            assert owner == row_partition_of(row, (0,), n_partitions)

    def test_one_partition_owns_everything(self):
        assert {row_partition_of(row, (1, 2), 1) for row in ROWS} == {0}
        assert row_partition_of((), (), 0) == 0

    def test_rows_agreeing_on_the_key_share_an_owner(self):
        owners = {}
        for row in ROWS:
            owner = row_partition_of(row, (1,), 4)
            assert owners.setdefault(row[1], owner) == owner
            assert owner == partition_hash((row[1],)) % 4

    def test_no_key_positions_hash_the_whole_row(self):
        for row in ROWS:
            assert row_partition_of(row, (), 5) == partition_hash(row) % 5
            assert row_partition_of(row, (), 5) == row_partition_of(row, (0, 1, 2), 5)


class TestPartitionRows:
    @pytest.mark.parametrize("key_positions", ((), (0,), (1, 2)))
    def test_shares_are_a_disjoint_cover_in_input_order(self, key_positions):
        shares = [partition_rows(ROWS, key_positions, 3, index) for index in range(3)]
        assert sorted(map(ROWS.index, sum(shares, []))) == list(range(len(ROWS)))
        for index, share in enumerate(shares):
            assert share == [row for row in ROWS if row in share]
            assert all(row_partition_of(row, key_positions, 3) == index for row in share)

    def test_accepts_a_one_shot_iterator(self):
        assert partition_rows(iter(ROWS), (0,), 1, 0) == ROWS


class TestPostRows:
    def test_posts_each_row_under_its_term_at_the_position(self):
        postings = {}
        post_rows(postings, 1, ROWS)
        assert set(postings) == {Constant("b0"), Constant("b1"), Constant("b2")}
        for term, rows in postings.items():
            assert rows == [row for row in ROWS if row[1] == term]

    def test_later_rows_append_to_existing_postings(self):
        postings = {}
        post_rows(postings, 2, ROWS[:5])
        post_rows(postings, 2, ROWS[5:])
        assert postings[Null("n0")] == [row for row in ROWS if row[2] == Null("n0")]
        assert sum(map(len, postings.values())) == len(ROWS)
