"""Median / quartile arithmetic, pinned."""

import pytest

from bench.stats import quiet_half, summarize


def test_summary_of_nine_samples():
    summary = summarize([9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0])
    assert summary["value"] == 5.0
    # statistics.quantiles(n=4), exclusive method: positions 2.5 and 7.5 of 1..9
    assert (summary["q1"], summary["q3"]) == (2.5, 7.5)
    assert (summary["min"], summary["max"], summary["n"]) == (1.0, 9.0, 9)
    assert summary["spread"] == pytest.approx(1.0)


def test_three_set_ups_have_their_range_as_inter_quartile_range():
    summary = summarize([2.0, 2.2, 2.1])
    assert summary["value"] == 2.1
    assert (summary["q1"], summary["q3"]) == (2.0, 2.2)


def test_a_single_sample_has_no_spread():
    summary = summarize([42.0])
    assert summary == {
        "value": 42.0, "q1": 42.0, "q3": 42.0, "min": 42.0, "max": 42.0, "n": 1, "spread": 0.0,
    }


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        summarize([])


def test_quiet_half_keeps_the_faster_half_and_the_middle_sample():
    assert quiet_half([5.0, 1.0, 4.0, 2.0, 3.0]) == [1.0, 2.0, 3.0]
    assert quiet_half([4.0, 1.0, 3.0, 2.0]) == [1.0, 2.0]
    assert quiet_half([7.0]) == [7.0]
