"""The rule builders' output, pinned byte for byte.

Each scenario, adversarial family and the skew workload is held to the
SHA-256 (first 16 hex digits) of two texts: ``serialize_rules`` of its rule
set, and its labels in order followed by its serialized database where the
builder makes one in memory.  A builder rewritten to compile its rules
differently must draw the same random numbers in the same order and emit
the same rules, labels and facts, so these digests stay as they are.
"""

import hashlib

import pytest

from repro.core.serializer import serialize_database, serialize_rules
from repro.generators import FAMILY_NAMES, generate_case, generate_skew_workload
from repro.scenarios import build_scenario

#: ``case -> (rules digest, labels-and-facts digest)``.
PINNED = {
    "Deep-100": ("a21d641112f3f64f", "f91e18f59b226560"),
    "Deep-200": ("550bd7fa79ed12e4", "5ab13e5be49ab0bb"),
    "Deep-300": ("c11f6c904131895f", "25aded22a91d315f"),
    "LUBM-1": ("e6aa504b23e5482d", "c79eaa20d4d75711"),
    "STB-128": ("5cfd4bad87666c90", "7e0f7ab765cdde40"),
    "ONT-256": ("3b24e78db611d345", "414bb2c654fa6599"),
    "guarded-s0": ("c3d3a1a4db26f501", "2538d417ab835b14"),
    "guarded-s1": ("c3d3a1a4db26f501", "457c92b3df9dfe3b"),
    "guarded-s2": ("c3d3a1a4db26f501", "807be3bf8a5ef5d1"),
    "heavy_skew-s0": ("97f0da0d8835b45c", "d37d732e67eba04d"),
    "heavy_skew-s1": ("a73c4f46f55c7198", "52db3b9855a91514"),
    "heavy_skew-s2": ("a73c4f46f55c7198", "d58ecc4bc70c9711"),
    "null_churn-s0": ("bb3ff81feb465557", "60c004f6021f32d9"),
    "null_churn-s1": ("bb3ff81feb465557", "60c004f6021f32d9"),
    "null_churn-s2": ("bb3ff81feb465557", "60c004f6021f32d9"),
    "nullary_gate-s0": ("b648812102ce88be", "da9eaaf6be48031f"),
    "nullary_gate-s1": ("b648812102ce88be", "c5e1228a177d2ffd"),
    "nullary_gate-s2": ("b648812102ce88be", "da9eaaf6be48031f"),
    "self_join-s0": ("262e1a71f272b76e", "e44a71580cec632b"),
    "self_join-s1": ("5394ef4dcd299d23", "f740630da1ff24c8"),
    "self_join-s2": ("b4e45268266a54e4", "47a75353587d0e63"),
    "sticky-s0": ("9d22edc63fceeeb1", "8b76832ea7ace6b2"),
    "sticky-s1": ("9d22edc63fceeeb1", "3f61733b6ef0aa79"),
    "sticky-s2": ("9d22edc63fceeeb1", "87de72e3fb4a17d8"),
    "termination_boundary-s0": ("2fd3608d5d2da722", "5ac2797e73cb5958"),
    "termination_boundary-s1": ("2fd3608d5d2da722", "1d4ba26857609378"),
    "termination_boundary-s2": ("2fd3608d5d2da722", "5ac2797e73cb5958"),
    "skew": ("ea1be6584552ca33", "823ea002d18b9e92"),
}

#: Scenario scales: Deep and LUBM in full, iBench as the table tests build it
#: (its rules do not depend on the scale).
SCENARIO_SCALES = {
    "Deep-100": 1.0,
    "Deep-200": 1.0,
    "Deep-300": 1.0,
    "LUBM-1": 1.0,
    "STB-128": 0.02,
    "ONT-256": 0.02,
}


def build(case):
    """The rule set of *case* and its in-memory database (``None`` for a scenario)."""
    if case in SCENARIO_SCALES:
        return build_scenario(case, scale=SCENARIO_SCALES[case]).tgds, None
    if case == "skew":
        workload = generate_skew_workload()
        return workload.tgds, workload.database
    family, seed = case.rsplit("-s", 1)
    generated = generate_case(family, seed=int(seed))
    return generated.tgds, generated.database


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_every_family_is_pinned_at_three_seeds():
    families = {case.rsplit("-s", 1)[0] for case in PINNED} - set(SCENARIO_SCALES) - {"skew"}
    assert families == set(FAMILY_NAMES)
    assert all(f"{family}-s{seed}" in PINNED for family in FAMILY_NAMES for seed in range(3))


@pytest.mark.parametrize("case", sorted(PINNED))
def test_builder_output_is_byte_identical(case):
    tgds, database = build(case)
    labels = "\n".join(rule.label for rule in tgds.rules) + "\n"
    facts = "" if database is None else serialize_database(database)
    assert (digest(serialize_rules(tgds)), digest(labels + facts)) == PINNED[case]
