"""Tests for the parallel, checkpointed sweep runner."""

import json

import pytest

from repro.exceptions import ExperimentConfigError
from repro.experiments import run_experiment
from repro.experiments.ablations import RULE_SETS
from repro.experiments.config import SMOKE, ExperimentConfig
from repro.experiments.runner import (
    DETERMINISTIC_COLUMNS,
    KINDS,
    SWEEP_KINDS,
    SweepTask,
    load_checkpoint,
    plan_sweep,
    run_sweep,
    sweep_fingerprint,
    sweep_summary,
)

#: A grid small enough that every runner test stays fast.
TINY = ExperimentConfig(
    tgd_scale=0.0003,
    predicate_scale=0.05,
    db_scale=0.0002,
    db_predicates=8,
    db_domain_size=100,
    sets_per_profile_sl=1,
    sets_per_profile_l=1,
)


def _deterministic(rows):
    return [{key: row.get(key) for key in DETERMINISTIC_COLUMNS} for row in rows]


class TestPlan:
    def test_plan_covers_the_grid_in_order(self):
        tasks = plan_sweep(SMOKE)
        assert len(tasks) == 9 * (SMOKE.sets_per_profile_sl + 2 * SMOKE.sets_per_profile_l)
        ids = [task.task_id for task in tasks]
        assert len(set(ids)) == len(ids)
        assert [task.kind for task in tasks] == sorted(
            (task.kind for task in tasks), key=SWEEP_KINDS.index
        )
        assert tasks[0].kind == "sl" and tasks[-1].kind == "shapes"
        assert ids == [task.task_id for task in plan_sweep(SMOKE)]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExperimentConfigError):
            plan_sweep(SMOKE, kinds=("bogus",))
        with pytest.raises(ExperimentConfigError):
            SweepTask("bogus", 0, 0)

    def test_scenario_and_ablation_kinds_plan_one_task_per_input(self):
        config = SMOKE.scaled(scenarios=("LUBM-1", "Deep-100"))
        tasks = plan_sweep(config, kinds=KINDS[len(SWEEP_KINDS):])
        counts = {kind: [task.kind for task in tasks].count(kind) for kind in KINDS}
        assert counts == {"sl": 0, "l": 0, "shapes": 0, "table1": 2, "table2": 2,
                          "static_vs_dynamic": RULE_SETS,
                          "materialization_vs_acyclicity": RULE_SETS}
        assert [task.task_id for task in tasks[:2]] == ["table1:p0:s0", "table1:p0:s1"]
        assert plan_sweep(config.scaled(scenarios=()), kinds=("table2",)) == []

    def test_task_ids_are_stable(self):
        assert SweepTask("l", 3, 1).task_id == "l:p3:s1"

    def test_duplicate_kinds_are_deduplicated(self):
        assert plan_sweep(SMOKE, kinds=("sl", "sl")) == plan_sweep(SMOKE, kinds=("sl",))
        result = run_sweep(TINY, kinds=("sl", "sl", "l"), workers=1)
        ids = [row["task_id"] for row in result.rows if row["kind"] == "sl"]
        assert len(ids) == len(set(ids)) == 9


class TestSerialSweep:
    def test_rows_cover_every_task(self):
        result = run_sweep(TINY, workers=1)
        assert result.finished
        task_ids = {row["task_id"] for row in result.rows}
        assert task_ids == {task.task_id for task in plan_sweep(TINY)}
        l_rows = [row for row in result.rows if row["kind"] == "l"]
        assert len(l_rows) == 9 * len(TINY.database_sizes())

    def test_incremental_matches_from_scratch(self):
        incremental = run_sweep(TINY, workers=1, incremental=True)
        scratch = run_sweep(TINY, workers=1, incremental=False)
        assert _deterministic(incremental.rows) == _deterministic(scratch.rows)

    def test_shapes_rows_time_both_finders_per_view(self):
        result = run_sweep(TINY, kinds=("shapes",), workers=1)
        sizes = TINY.database_sizes()
        assert len(result.rows) == 9 * len(sizes) * 2
        first_task = [row for row in result.rows if row["task_id"] == "shapes:p0:s0"]
        assert [(row["n_tuples_per_relation"], row["method"]) for row in first_task] == [
            (size, method) for size in sizes for method in ("in-memory", "in-database")
        ]
        for in_memory, in_database in zip(first_task[::2], first_task[1::2]):
            assert in_memory["n_shapes"] == in_database["n_shapes"]
            assert in_memory["rows_scanned"] == in_memory["n_tuples_total"]
            assert in_memory["queries_issued"] == 0 and in_database["rows_scanned"] == 0
            assert in_memory["t_shapes"] >= 0 and in_database["t_shapes"] >= 0

    def test_l_rows_carry_the_db_independent_time(self):
        for incremental in (True, False):
            result = run_sweep(TINY, kinds=("l",), workers=1, incremental=incremental)
            for row in result.rows:
                assert row["n_edges"] >= row["n_special_edges"] >= 0
                assert row["n_tuples_total"] >= row["n_tuples_per_relation"]
                assert row["t_db_independent"] == pytest.approx(
                    row["t_parse"] + row["t_graph"] + row["t_comp"]
                )
            # Only the from-scratch pipeline parses per view.
            assert any(row["t_parse"] > 0 for row in result.rows) is not incremental

    def test_delta_finder_only_in_incremental_mode(self, monkeypatch):
        import repro.experiments.runner as runner_module

        def _boom(*args, **kwargs):
            raise AssertionError("from-scratch tasks must not build a DeltaShapeFinder")

        monkeypatch.setattr(runner_module, "DeltaShapeFinder", _boom)
        result = run_sweep(TINY, kinds=("l", "shapes"), workers=1, incremental=False)
        assert result.finished

    def test_workers_validation(self):
        with pytest.raises(ExperimentConfigError):
            run_sweep(TINY, workers=0)


class TestParallelSweep:
    def test_parallel_rows_equal_serial(self):
        serial = run_sweep(TINY, workers=1)
        parallel = run_sweep(TINY, workers=2)
        assert _deterministic(serial.rows) == _deterministic(parallel.rows)
        assert sweep_summary(serial.rows) == sweep_summary(parallel.rows)


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_byte_identical(self, tmp_path):
        full = run_sweep(TINY, workers=1, checkpoint_path=tmp_path / "full.jsonl")
        full_table = sweep_summary(full.rows)

        checkpoint = tmp_path / "partial.jsonl"
        partial = run_sweep(TINY, workers=1, checkpoint_path=checkpoint, max_tasks=5)
        assert not partial.finished
        assert len(partial.completed_task_ids) == 5
        assert len(partial.pending_task_ids) == len(plan_sweep(TINY)) - 5

        resumed = run_sweep(TINY, workers=1, checkpoint_path=checkpoint)
        assert resumed.finished
        assert len(resumed.resumed_task_ids) == 5
        assert sweep_summary(resumed.rows) == full_table
        assert _deterministic(resumed.rows) == _deterministic(full.rows)

    def test_completed_checkpoint_reruns_nothing(self, tmp_path):
        checkpoint = tmp_path / "done.jsonl"
        run_sweep(TINY, workers=1, checkpoint_path=checkpoint)
        again = run_sweep(TINY, workers=1, checkpoint_path=checkpoint)
        assert again.finished
        assert len(again.resumed_task_ids) == len(plan_sweep(TINY))
        assert again.elapsed_seconds < 1.0

    def test_checkpoint_rejects_other_configuration(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        run_sweep(TINY, workers=1, checkpoint_path=checkpoint, max_tasks=1)
        with pytest.raises(ExperimentConfigError):
            run_sweep(TINY.scaled(seed=1), workers=1, checkpoint_path=checkpoint)
        with pytest.raises(ExperimentConfigError):
            run_sweep(TINY, workers=1, checkpoint_path=checkpoint, incremental=False)

    def test_truncated_final_record_is_ignored(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        run_sweep(TINY, workers=1, checkpoint_path=checkpoint, max_tasks=3)
        content = checkpoint.read_text()
        checkpoint.write_text(content + '{"task_id": "l:p0:s0", "rows": [tru')
        fingerprint = sweep_fingerprint(TINY, SWEEP_KINDS, True)
        completed = load_checkpoint(checkpoint, fingerprint)
        assert len(completed) == 3
        resumed = run_sweep(TINY, workers=1, checkpoint_path=checkpoint)
        assert resumed.finished

    def test_resume_over_torn_line_loses_no_records(self, tmp_path):
        # Appending after a torn final line must not fuse records: a later
        # load has to see the header plus one valid record per completed task.
        checkpoint = tmp_path / "sweep.jsonl"
        run_sweep(TINY, workers=1, checkpoint_path=checkpoint, max_tasks=2)
        with open(checkpoint, "a", encoding="utf-8") as handle:
            handle.write('{"task_id": "l:p0:s0", "rows": [tru')  # no newline
        run_sweep(TINY, workers=1, checkpoint_path=checkpoint, max_tasks=2)
        fingerprint = sweep_fingerprint(TINY, SWEEP_KINDS, True)
        assert len(load_checkpoint(checkpoint, fingerprint)) == 4
        for line in checkpoint.read_text().splitlines():
            json.loads(line)  # every line is valid JSON
        final = run_sweep(TINY, workers=1, checkpoint_path=checkpoint)
        assert final.finished
        assert len(final.resumed_task_ids) == 4

    def test_already_complete_checkpoint_executes_nothing(self, tmp_path, monkeypatch):
        # Resuming a checkpoint with zero remaining tasks must replay rows
        # verbatim: no task execution, no checkpoint append, same table.
        checkpoint = tmp_path / "done.jsonl"
        full = run_sweep(TINY, workers=1, checkpoint_path=checkpoint)
        content_before = checkpoint.read_bytes()

        import repro.experiments.runner as runner_module

        def _boom(*args, **kwargs):
            raise AssertionError("no task may execute on a fully-resumed sweep")

        monkeypatch.setattr(runner_module, "_execute_task", _boom)
        again = run_sweep(TINY, workers=1, checkpoint_path=checkpoint)
        assert again.finished and not again.pending_task_ids
        assert sweep_summary(again.rows) == sweep_summary(full.rows)
        assert again.rows == full.rows
        assert checkpoint.read_bytes() == content_before

    def test_already_complete_checkpoint_with_limit_and_workers(self, tmp_path):
        # --limit and a process pool on a complete checkpoint are both
        # no-ops: everything resumes, nothing re-plans into execution.
        checkpoint = tmp_path / "done.jsonl"
        full = run_sweep(TINY, workers=1, checkpoint_path=checkpoint)
        limited = run_sweep(TINY, workers=1, checkpoint_path=checkpoint, max_tasks=1)
        assert limited.finished and limited.rows == full.rows
        pooled = run_sweep(TINY, workers=2, checkpoint_path=checkpoint)
        assert pooled.finished and pooled.rows == full.rows

    def test_fully_resumed_sweep_skips_worker_state(self, tmp_path, monkeypatch):
        checkpoint = tmp_path / "sweep.jsonl"
        run_sweep(TINY, workers=1, checkpoint_path=checkpoint)

        import repro.experiments.runner as runner_module

        def _boom(*args, **kwargs):
            raise AssertionError("D* must not be rebuilt when nothing is pending")

        monkeypatch.setattr(runner_module, "build_dstar", _boom)
        again = run_sweep(TINY, workers=1, checkpoint_path=checkpoint)
        assert again.finished and not again.pending_task_ids

    def test_checkpoint_records_are_json_lines(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        run_sweep(TINY, workers=1, checkpoint_path=checkpoint, max_tasks=2)
        lines = checkpoint.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["fingerprint"] == sweep_fingerprint(TINY, SWEEP_KINDS, True)
        for line in lines[1:]:
            record = json.loads(line)
            assert set(record) == {"task_id", "elapsed", "rows"}


class TestExperimentKinds:
    def test_run_experiment_projects_the_sweep_rows(self, tmp_path):
        # `run table1` and a checkpointed, resumed `sweep --kinds table1` hold
        # the same rows: the run adds its `table` tag, the sweep its task key.
        config = SMOKE.scaled(scenarios=("LUBM-1", "STB-128"), scenario_scale=0.01)
        checkpoint = tmp_path / "tables.jsonl"
        partial = run_sweep(config, kinds=("table1",), checkpoint_path=checkpoint, max_tasks=1)
        assert partial.pending_task_ids == ["table1:p0:s1"]
        swept = run_sweep(config, kinds=("table1",), checkpoint_path=checkpoint)
        assert swept.resumed_task_ids == ["table1:p0:s0"]
        projected = [
            {"table": "table1", **{key: value for key, value in row.items()
                                   if key not in ("task_id", "kind")}}
            for row in swept.rows
        ]
        assert projected == run_experiment("table1", config)
        summary = sweep_summary(swept.rows)
        assert summary.startswith("sweep[table1] (per scenario)")
        assert "LUBM-1" in summary and "STB-128" in summary

    def test_unknown_scenarios_fail_before_any_task_runs(self):
        with pytest.raises(ExperimentConfigError, match="NOPE"):
            run_sweep(SMOKE.scaled(scenarios=("Deep-100", "NOPE")), kinds=("table2",))


class TestSummary:
    def test_summary_uses_only_deterministic_columns(self):
        result = run_sweep(TINY, workers=1)
        jittered = [dict(row) for row in result.rows]
        for row in jittered:
            for key in row:
                if key.startswith("t_"):
                    row[key] = 123.456
        assert sweep_summary(jittered) == sweep_summary(result.rows)

    def test_empty_rows(self):
        assert sweep_summary([]) == "(no rows)"
