"""Tests for the deterministic heavy-hitter generator in ``repro.generators.skew``."""

import pytest

from repro.chase.engine import chase
from repro.exceptions import ExperimentConfigError
from repro.generators import generate_skew_workload, zipf_allocation

from tests.helpers import chase_result_fingerprint


class TestZipfAllocation:
    def test_sums_exactly_and_never_loses_rows(self):
        for rows in (0, 1, 7, 100, 257):
            for n_keys in (1, 3, 8):
                for skew in (0.0, 0.8, 1.5, 3.0):
                    counts = zipf_allocation(rows, n_keys, skew)
                    assert len(counts) == n_keys
                    assert sum(counts) == rows

    def test_non_increasing_in_key_index(self):
        counts = zipf_allocation(500, 10, 1.5)
        assert counts == sorted(counts, reverse=True)

    def test_zero_skew_is_near_uniform(self):
        counts = zipf_allocation(100, 4, 0.0)
        assert max(counts) - min(counts) <= 1

    def test_deterministic(self):
        assert zipf_allocation(321, 9, 1.3) == zipf_allocation(321, 9, 1.3)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ExperimentConfigError):
            zipf_allocation(-1, 4, 1.0)
        with pytest.raises(ExperimentConfigError):
            zipf_allocation(10, 0, 1.0)


class TestGenerateSkewWorkload:
    def test_deterministic_under_fixed_knobs(self):
        first = generate_skew_workload(n_keys=6, rows=120, skew=1.2, seed=3)
        second = generate_skew_workload(n_keys=6, rows=120, skew=1.2, seed=3)
        assert first.tgds == second.tgds
        assert set(first.database) == set(second.database)
        assert first.key_counts == second.key_counts

    def test_seed_renames_constants_without_changing_shape(self):
        first = generate_skew_workload(seed=0)
        second = generate_skew_workload(seed=1)
        assert len(first.database) == len(second.database)
        assert [count for _, count in first.key_counts] == [
            count for _, count in second.key_counts
        ]
        first_names = {term.name for atom in first.database for term in atom.terms}
        second_names = {term.name for atom in second.database for term in atom.terms}
        assert first_names.isdisjoint(second_names)

    def test_heaviest_key_dominates(self):
        workload = generate_skew_workload(n_keys=8, rows=256, skew=1.5)
        (_, heaviest), *rest = workload.key_counts
        assert heaviest > 2 * workload.rows / workload.n_keys
        assert all(heaviest >= count for _, count in rest)

    def test_key_counts_match_database(self):
        workload = generate_skew_workload(n_keys=5, rows=90, skew=1.0, seed=2)
        by_key = {}
        for atom in workload.database:
            if atom.predicate.name == "src":
                key = atom.terms[0].name
                by_key[key] = by_key.get(key, 0) + 1
        assert dict(workload.key_counts) == by_key
        assert sum(by_key.values()) == workload.rows

    def test_chase_creates_expected_atoms(self):
        workload = generate_skew_workload(n_keys=4, rows=40, fan_out=3, depth=2)
        result = chase(workload.database, workload.tgds)
        assert result.terminated
        assert result.atoms_created == workload.expected_atoms

    def test_rejects_bad_knobs(self):
        with pytest.raises(ExperimentConfigError):
            generate_skew_workload(skew=-0.1)
        with pytest.raises(ExperimentConfigError):
            generate_skew_workload(fan_out=0)
        with pytest.raises(ExperimentConfigError):
            generate_skew_workload(depth=-1)

    def test_profile_skews_the_parallel_partition(self):
        """The star join's seed partition gives one worker the hub key's whole load."""
        from repro.chase.matching import JoinPlan
        from repro.core.indexing import row_partition_of

        workload = generate_skew_workload(n_keys=8, rows=256, skew=1.5)
        star = next(tgd for tgd in workload.tgds if len(tgd.body) == 2)
        mid_slot = next(
            slot for slot, atom in enumerate(star.body) if atom.predicate.name == "mid"
        )
        plan = JoinPlan(star.rule, mid_slot)
        # Round 1's delta is exactly the mid() copy of the src profile.
        mid_rows = [
            atom.terms for atom in workload.database if atom.predicate.name == "src"
        ]
        loads = [0] * 4
        for row in mid_rows:
            loads[row_partition_of(row, plan.partition_positions, 4)] += 1
        (_, heaviest), *_ = workload.key_counts
        assert max(loads) >= heaviest > 2 * len(mid_rows) / 4

    @pytest.mark.parametrize(
        "workers, executor, backend",
        [
            (2, "serial", "instance"),
            (4, "serial", "instance"),
            (2, "process", "instance"),  # the benchmark's chase_skew_par2 pool
            (2, "process", "sqlite"),
            (4, "process", "sqlite"),
        ],
    )
    def test_workers_identical_to_serial(self, workers, executor, backend):
        from repro.chase.parallel import parallel_chase

        workload = generate_skew_workload(n_keys=6, rows=64, skew=1.5)
        parallel = parallel_chase(
            workload.database, workload.tgds, workers=workers, executor=executor,
            backend=backend,
        )
        assert chase_result_fingerprint(parallel) == chase_result_fingerprint(
            chase(workload.database, workload.tgds)
        )
