"""The measurement loop, driven by a scripted workload on a manual clock."""

import pytest

from bench.runner import MIN_OPERATIONS, SETUPS, measure
from bench.tests.fakes import FakeWorkload
from bench.workload import Traced
from repro.obs import ManualClock


def run(workload, clock, **overrides):
    options = dict(seed=7, seconds=5.0, trace=0, clock=clock, collect=lambda: None)
    options.update(overrides)
    return measure(workload, **options)


def test_end_to_end_run_sets_up_three_times_then_measures_for_the_window():
    clock = ManualClock()
    workload = FakeWorkload(clock, setup_seconds=2.0, operation_seconds=[3.0, 1.0])
    raw = run(workload, clock)
    assert workload.setups == SETUPS == 3
    assert raw["setup_samples"] == [2.0, 2.0, 2.0]
    # The first operation in the fresh interpreter is reported apart.
    assert raw["cold_wall_s"] == 3.0
    # Five one-second operations fill the five-second window exactly.
    assert raw["wall_samples"] == [1.0] * 5
    assert (raw["attempted"], raw["failed"], raw["problems"]) == (6, 0, [])
    assert raw["units"] == 100 and raw["unit"] == "widgets"
    assert "layers" not in raw


def test_a_window_of_zero_still_takes_the_minimum_number_of_operations():
    clock = ManualClock()
    raw = run(FakeWorkload(clock), clock, seconds=0.0)
    assert len(raw["wall_samples"]) == MIN_OPERATIONS == 2


def test_collect_runs_before_every_set_up_and_every_operation():
    clock = ManualClock()
    collected = []
    workload = FakeWorkload(clock)
    raw = run(workload, clock, seconds=2.0, collect=lambda: collected.append(clock.now()))
    assert len(collected) == SETUPS + raw["attempted"]
    # ... and never inside a timed region: every sample is exactly the scripted second.
    assert raw["wall_samples"] == [1.0, 1.0]


def test_a_rejected_output_counts_as_a_failed_operation():
    clock = ManualClock()
    raw = run(FakeWorkload(clock, rejected=[2, 4]), clock)
    assert (raw["attempted"], raw["failed"]) == (6, 2)
    assert raw["problems"] == [
        "operation 2: scripted rejection",
        "operation 4: scripted rejection",
    ]


def test_a_raising_operation_counts_as_failed_and_the_run_goes_on():
    clock = ManualClock()
    raw = run(FakeWorkload(clock, raising=[3]), clock)
    assert (raw["attempted"], raw["failed"]) == (6, 1)
    assert "scripted failure" in raw["problems"][0]
    assert len(raw["wall_samples"]) == 5


def test_traced_run_sets_up_once_and_measures_the_overhead_against_warm_operations():
    clock = ManualClock()
    traced = Traced(wall_s=1.5, layers={"fake.layer_s": 1.25})
    workload = FakeWorkload(clock, operation_seconds=[4.0, 1.0], traced=traced)
    raw = run(workload, clock, trace=1, seconds=6.0)
    assert workload.setups == 1
    # Half the window goes to the warm baseline: three one-second operations.
    assert raw["wall_samples"] == [1.0, 1.0, 1.0]
    assert workload.warm_wall_s == 1.0
    assert raw["traced_wall_s"] == 1.5
    assert raw["layers"] == {
        "fake.layer_s": 1.25,
        "obs.trace_overhead_ratio": 1.5,
        "bench.cold_wall_s": 4.0,
    }
    # cold + three warm + the traced operation
    assert (raw["attempted"], raw["failed"]) == (5, 0)


def test_a_traced_operation_that_fails_verification_is_a_failed_operation():
    clock = ManualClock()
    traced = Traced(wall_s=1.0, layers={}, problems=["fingerprint differs"])
    raw = run(FakeWorkload(clock, traced=traced), clock, trace=1)
    assert raw["failed"] == 1
    assert raw["problems"] == ["traced operation: fingerprint differs"]


def test_set_up_errors_are_not_swallowed():
    clock = ManualClock()
    workload = FakeWorkload(clock)

    def broken_setup(seed, scale):
        raise ValueError("reference engines disagree")

    workload.setup = broken_setup
    with pytest.raises(ValueError):
        run(workload, clock)
