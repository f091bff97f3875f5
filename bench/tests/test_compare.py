"""``--compare`` verdicts, from the bounds in the spec."""

import io
import json

from bench import compare
from bench.tests.fakes import fake_spec


def report(wall=1.0, rate=100.0, setup=2.0, rss=64.0, fail_ratio=0.0, unresolved=()):
    def metric(value, name):
        return {"value": value, "unresolved": name in unresolved}

    return {
        "comparable": True,
        "workloads": {
            "fake": {
                "fail_ratio": fail_ratio,
                "end_to_end": {
                    "wall_s": metric(wall, "wall_s"),
                    "units_per_s": metric(rate, "units_per_s"),
                    "setup_s": metric(setup, "setup_s"),
                    "peak_rss_mb": metric(rss, "peak_rss_mb"),
                },
            }
        },
    }


def verdicts(base, new):
    return {row["metric"]: row["verdict"] for row in compare.compare(fake_spec(), base, new)}


def test_one_row_per_end_to_end_metric_plus_fail_ratio():
    rows = compare.compare(fake_spec(), report(), report())
    assert [row["metric"] for row in rows] == [
        "wall_s", "units_per_s", "setup_s", "peak_rss_mb", "fail_ratio",
    ]
    assert {row["verdict"] for row in rows} == {"unchanged"}
    assert rows[0]["ratio"] == 1.0 and rows[0]["base"] == 1.0


def test_lower_is_better_metrics():
    assert verdicts(report(wall=1.0), report(wall=1.11))["wall_s"] == "regressed"
    assert verdicts(report(wall=1.0), report(wall=1.09))["wall_s"] == "unchanged"
    assert verdicts(report(wall=1.0), report(wall=0.89))["wall_s"] == "improved"


def test_higher_is_better_metrics():
    assert verdicts(report(rate=100.0), report(rate=89.0))["units_per_s"] == "regressed"
    assert verdicts(report(rate=100.0), report(rate=95.0))["units_per_s"] == "unchanged"
    assert verdicts(report(rate=100.0), report(rate=111.0))["units_per_s"] == "improved"


def test_each_metric_uses_its_own_bound():
    # setup_s tolerates 25%, wall_s only 10%.
    result = verdicts(report(), report(wall=1.2, setup=2.4))
    assert (result["wall_s"], result["setup_s"]) == ("regressed", "unchanged")


def test_a_noisy_side_makes_the_row_unresolved_not_unchanged():
    assert verdicts(report(unresolved=["wall_s"]), report(wall=2.0))["wall_s"] == "unresolved"
    assert verdicts(report(), report(unresolved=["wall_s"]))["wall_s"] == "unresolved"


def test_any_increase_in_fail_ratio_is_a_regression():
    assert verdicts(report(), report(fail_ratio=0.01))["fail_ratio"] == "regressed"
    assert verdicts(report(fail_ratio=0.5), report(fail_ratio=0.1))["fail_ratio"] == "improved"


def test_main_prints_the_table_and_exits_one_on_a_regression(tmp_path):
    base, slower = tmp_path / "base.json", tmp_path / "slower.json"
    base.write_text(json.dumps(report()))
    slower.write_text(json.dumps(report(wall=1.5, rate=66.0)))
    out = io.StringIO()
    assert compare.main(fake_spec(), str(base), str(base), out) == 0
    assert "0 regressed, 0 unresolved" in out.getvalue()
    out = io.StringIO()
    assert compare.main(fake_spec(), str(base), str(slower), out) == 1
    text = out.getvalue()
    assert "1.500 of 1" in text and "regressed" in text
    assert "5 rows: 2 regressed, 0 unresolved" in text
