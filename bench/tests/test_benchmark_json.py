"""``BENCHMARK.json`` against the acceptance contract, and against what the
real workloads emit (every declared name is emitted somewhere, every emitted
name is declared)."""

import json
import re

import pytest

from bench.runner import measure
from bench.spec import ROOT, load_spec
from bench.workloads import WORKLOADS
from repro.obs import MonotonicClock

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


@pytest.fixture(scope="module")
def raw():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_top_level_keys_and_limits(raw):
    assert set(raw) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert raw["paths"] == ["bench"] and all(PATH.fullmatch(path) for path in raw["paths"])
    assert len(raw["command"]) <= 32 and all(len(word) <= 200 for word in raw["command"])
    assert isinstance(raw["run_seconds"], int) and 1 <= raw["run_seconds"] <= 60
    assert 2 <= len(raw["workloads"]) <= 8
    assert 1 <= len(raw["end_to_end"]) <= 16
    assert 1 <= len(raw["per_layer"]) <= 128
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    # 4 + 22 x workloads runs of roughly two run lengths each must fit in 3420 s.
    assert (4 + 22 * len(raw["workloads"])) * 2 * raw["run_seconds"] <= 3420


def test_entries_have_exactly_the_contract_keys(raw):
    for workload in raw["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in raw["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in raw["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in raw["end_to_end"] + raw["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")


def test_names_are_well_formed_and_used_once(raw):
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in raw[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


def test_setup_s_is_declared_with_the_largest_bound(raw):
    bounds = {metric["name"]: metric["bound"] for metric in raw["end_to_end"]}
    setup = next(metric for metric in raw["end_to_end"] if metric["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert bounds["setup_s"] == max(bounds.values())


def test_declared_workloads_are_the_registered_ones():
    assert list(load_spec().workloads) == list(WORKLOADS)


def test_every_declared_layer_is_emitted_and_every_emitted_layer_declared():
    """One tiny traced run of each real workload (two worker processes at most)."""
    emitted = set()
    for workload in WORKLOADS.values():
        result = measure(
            workload, seed=3, seconds=0.0, trace=1, scale=0.05, clock=MonotonicClock()
        )
        assert (result["failed"], result["problems"]) == (0, [])
        assert all(NAME.fullmatch(name) for name in result["layers"])
        emitted |= set(result["layers"])
    assert emitted == set(load_spec().per_layer)
