"""Parallel, checkpointed workload sweeps (the experiment runner subsystem).

The paper's end-to-end measurements are embarrassingly parallel at workload
granularity: every (rule set, database) input is independent, so the sweep
fans them across a process pool the way the worker-pool designs of the
parallel-join literature distribute independent partitions.  Three pieces:

* **Task plan** — :func:`plan_sweep` enumerates the grid as
  :class:`SweepTask` descriptors of the paper's measurement families:
  ``sl`` (Figure 1), ``l`` (Figures 5–7, the db-independent and edge
  figures) and ``shapes`` (Figures 2–4) over the synthetic grid,
  ``table1``/``table2`` (Section 9) over ``config.scenarios`` and the two
  ablations (§1.4, §4.2) over their generated rule sets; every experiment
  id of :mod:`repro.experiments.figures` projects one kind's rows.  Tasks
  carry *indices*, not data: workload generation is deterministic and
  random-access
  (:func:`~repro.experiments.workloads.build_simple_linear_workload` /
  :func:`~repro.experiments.workloads.build_linear_rule_set`), so a worker
  process regenerates exactly the inputs its task names instead of receiving
  pickled databases.
* **Checkpointed execution** — :func:`run_sweep` appends one JSONL record
  per completed task to the checkpoint file (guarded by a config
  fingerprint), so an interrupted sweep resumes where it stopped and a
  resumed run reuses the completed tasks' rows verbatim.
* **Incremental linear tasks** — one linear task sweeps a rule set across
  the whole ``D*`` prefix-view ladder with an
  :class:`~repro.termination.incremental.IncrementalLinearChecker` backed by
  a per-worker :class:`~repro.storage.shape_finder.DeltaShapeFinder`, so
  view ``i+1`` pays only for the rows beyond view ``i``'s offset instead of
  re-running ``FindShapes`` and Algorithm 2 from scratch.

Aggregation (:func:`sweep_summary`) projects onto the *deterministic*
columns (verdicts, rule/shape/edge counts) before grouping, so the aggregate
tables of an interrupted-then-resumed sweep are byte-identical to an
uninterrupted run — timings stay available in the raw rows and CSV exports.
"""

from __future__ import annotations

import json
import os
from concurrent import futures
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import ExperimentConfigError
from ..obs.clock import perf_counter_s
from ..obs.tracer import AnyTracer, as_tracer
from ..storage.shape_finder import DeltaShapeFinder, InDatabaseShapeFinder, InMemoryShapeFinder
from ..termination.incremental import IncrementalLinearChecker
from ..termination.linear import is_chase_finite_l
from ..termination.simple_linear import is_chase_finite_sl
from .ablations import RULE_SETS, materialization_vs_acyclicity_rows, static_vs_dynamic_rows
from .config import ExperimentConfig
from .reporting import format_table, group_mean
from .tables import table1_rows, table2_rows
from .workloads import (
    build_dstar,
    build_linear_rule_set,
    build_simple_linear_workload,
    dstar_views,
    global_schema,
    restrict_view_to_rules,
)

Row = Dict[str, object]

#: Checkpoint format version (bumped on incompatible record changes).
CHECKPOINT_VERSION = 1

#: The kinds a sweep runs by default: the simple-linear grid (Section 7),
#: the linear prefix-view ladder (Section 8) and FindShapes alone on it.
SWEEP_KINDS = ("sl", "l", "shapes")
#: The kinds that run one literature scenario per task (Tables 1/2).
SCENARIO_KINDS = ("table1", "table2")
#: Every kind a sweep can cover: the defaults, the scenario kinds and the
#: two ablations (one generated rule set per task).
KINDS = SWEEP_KINDS + SCENARIO_KINDS + ("static_vs_dynamic", "materialization_vs_acyclicity")


@dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work: a cell of the workload grid, named by indices.

    ``sl`` tasks run ``IsChaseFinite[SL]`` on one generated workload; ``l``
    tasks sweep one linear rule set across every ``D*`` prefix view;
    ``shapes`` tasks run both ``FindShapes`` implementations on every view
    restricted to one linear rule set's schema.  The other kinds have one
    profile (``0``) and one sample per scenario of ``config.scenarios``
    (``table1``/``table2``) or per ablation rule set.
    """

    kind: str
    profile_index: int
    sample_index: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ExperimentConfigError(f"unknown sweep kind {self.kind!r}")

    @property
    def task_id(self) -> str:
        """Stable identifier used as the checkpoint key."""
        return f"{self.kind}:p{self.profile_index}:s{self.sample_index}"


def plan_sweep(config: ExperimentConfig, kinds: Sequence[str] = SWEEP_KINDS) -> List[SweepTask]:
    """Enumerate the sweep tasks for *config* in deterministic order.

    Repeated kinds are deduplicated (first occurrence wins) so task ids stay
    unique.
    """
    tasks: List[SweepTask] = []
    for kind in dict.fromkeys(kinds):
        if kind not in KINDS:
            raise ExperimentConfigError(
                f"unknown sweep kind {kind!r}; expected a subset of {KINDS}"
            )
        if kind in SWEEP_KINDS:
            profiles = len(config.combined_profiles())
            samples = config.sets_per_profile_sl if kind == "sl" else config.sets_per_profile_l
        else:  # one profile: one sample per scenario or per ablation rule set
            profiles = 1
            samples = len(config.scenarios) if kind in SCENARIO_KINDS else RULE_SETS
        for profile_index in range(profiles):
            for sample_index in range(samples):
                tasks.append(SweepTask(kind, profile_index, sample_index))
    return tasks


def sweep_fingerprint(
    config: ExperimentConfig, kinds: Sequence[str], incremental: bool
) -> str:
    """Fingerprint guarding a checkpoint against resumption under a different setup."""
    payload = {
        "config": asdict(config),
        "kinds": list(kinds),
        "incremental": bool(incremental),
        "version": CHECKPOINT_VERSION,
    }
    return json.dumps(payload, sort_keys=True)


# --------------------------------------------------------------------------- #
# Per-process worker state

class _WorkerState:
    """Everything a worker needs, built once per process from the config.

    The ``D*`` store and its view ladder are shared by every ``l`` and
    ``shapes`` task the worker executes; in incremental mode so is the
    :class:`DeltaShapeFinder`, so the base relations are scanned at most once
    per process no matter how many rule sets run.
    """

    def __init__(self, config: ExperimentConfig, kinds: Sequence[str], incremental: bool):
        self.config = config
        self.incremental = incremental
        self.schema = global_schema(config)
        self.views = None
        self.finder = None
        if "l" in kinds or "shapes" in kinds:
            store = build_dstar(config)
            self.views = dstar_views(config, store)
            if incremental:
                self.finder = DeltaShapeFinder(store)


_WORKER_STATE: Optional[_WorkerState] = None


def _init_worker(config: ExperimentConfig, kinds: Sequence[str], incremental: bool) -> None:
    global _WORKER_STATE
    _WORKER_STATE = _WorkerState(config, kinds, incremental)


def _run_task(state: _WorkerState, task: SweepTask) -> Tuple[str, List[Row], float]:
    """Execute one task; elapsed is measured here so the checkpoint records
    task cost, not queue wait."""
    start = perf_counter_s()
    rows = _execute_task(state, task)
    return task.task_id, rows, perf_counter_s() - start


def _run_task_in_worker(task: SweepTask) -> Tuple[str, List[Row], float]:
    assert _WORKER_STATE is not None, "worker initializer did not run"
    return _run_task(_WORKER_STATE, task)


# --------------------------------------------------------------------------- #
# Task execution

def _execute_task(state: _WorkerState, task: SweepTask) -> List[Row]:
    return [
        {"task_id": task.task_id, "kind": task.kind, **row}
        for row in _EXECUTORS[task.kind](state, task)
    ]


def _execute_sl_task(state: _WorkerState, task: SweepTask) -> List[Row]:
    workload = build_simple_linear_workload(
        state.config, task.profile_index, task.sample_index, schema=state.schema
    )
    report = is_chase_finite_sl(workload.database, workload.rules_text)
    timings = report.timings
    return [
        {
            "predicate_profile": workload.profile.predicates.label,
            "tgd_profile": workload.profile.tgds.label,
            "n_rules": report.statistics["n_rules"],
            "n_edges": report.statistics["n_edges"],
            "finite": report.finite,
            "t_parse": timings.t_parse,
            "t_graph": timings.t_graph,
            "t_comp": timings.t_comp,
            "t_total": timings.t_total,
        }
    ]


def _execute_linear_task(state: _WorkerState, task: SweepTask) -> List[Row]:
    rule_set = build_linear_rule_set(
        state.config, task.profile_index, task.sample_index, schema=state.schema
    )
    rows: List[Row] = []
    checker = (
        IncrementalLinearChecker(rule_set.tgds, state.finder)
        if state.incremental
        else None
    )
    for view in state.views:
        restricted = restrict_view_to_rules(view, rule_set.tgds)
        if checker is not None:
            report = checker.check(restricted)
        else:
            # The paper's per-view pipeline: parse, full FindShapes, full Algorithm 2.
            report = is_chase_finite_l(InMemoryShapeFinder(restricted), rule_set.rules_text)
        statistics, timings = report.statistics, report.timings
        rows.append(
            {
                "predicate_profile": rule_set.profile.predicates.label,
                "tgd_profile": rule_set.profile.tgds.label,
                "n_tuples_per_relation": view.tuples_per_relation,
                "n_tuples_total": restricted.total_rows(),
                "n_rules": rule_set.n_rules,
                "n_shapes": statistics["n_initial_shapes"],
                "n_simplified_rules": statistics["n_simplified_rules"],
                "n_edges": statistics["n_edges"],
                "n_special_edges": statistics["n_special_edges"],
                "finite": report.finite,
                "t_parse": timings.t_parse,
                "t_shapes": timings.t_shapes,
                "t_graph": timings.t_graph,
                "t_comp": timings.t_comp,
                "t_total": timings.t_total,
                "t_db_independent": timings.db_independent,
            }
        )
    return rows


def _execute_shapes_task(state: _WorkerState, task: SweepTask) -> List[Row]:
    """Time each ``FindShapes`` implementation from scratch on every view."""
    rule_set = build_linear_rule_set(
        state.config, task.profile_index, task.sample_index, schema=state.schema
    )
    rows: List[Row] = []
    for view in state.views:
        restricted = restrict_view_to_rules(view, rule_set.tgds)
        for method, finder_class in (
            ("in-memory", InMemoryShapeFinder), ("in-database", InDatabaseShapeFinder)
        ):
            start = perf_counter_s()
            finder = finder_class(restricted)
            shapes = finder.find_shapes()
            elapsed = perf_counter_s() - start
            rows.append(
                {
                    "method": method,
                    "predicate_profile": rule_set.profile.predicates.label,
                    "tgd_profile": rule_set.profile.tgds.label,
                    "n_tuples_per_relation": view.tuples_per_relation,
                    "n_tuples_total": restricted.total_rows(),
                    "n_predicates": len(restricted.relation_names()),
                    "n_shapes": len(shapes),
                    "t_shapes": elapsed,
                    "rows_scanned": finder.stats.rows_scanned,
                    "queries_issued": finder.stats.queries_issued,
                }
            )
    return rows


#: Per kind, the function computing one task's rows (the runner adds the
#: ``task_id`` and ``kind`` columns).
_EXECUTORS: Dict[str, Callable[[_WorkerState, SweepTask], List[Row]]] = {
    "sl": _execute_sl_task,
    "l": _execute_linear_task,
    "shapes": _execute_shapes_task,
    "table1": table1_rows,
    "table2": table2_rows,
    "static_vs_dynamic": static_vs_dynamic_rows,
    "materialization_vs_acyclicity": materialization_vs_acyclicity_rows,
}


# --------------------------------------------------------------------------- #
# Checkpointing

def load_checkpoint(path, fingerprint: str) -> Dict[str, List[Row]]:
    """Load completed task rows from a JSONL checkpoint.

    Returns ``{}`` when the file does not exist.  An unreadable file, a
    header or record of the wrong shape, and a checkpoint written under a
    different configuration (or sweep mode) raise
    :class:`~repro.exceptions.ExperimentConfigError` instead of silently
    mixing incompatible results.  Records are keyed by task id; a trailing
    partially-written line (interrupt mid-write) is ignored.
    """
    if path is None or not os.path.exists(path):
        return {}
    completed: Dict[str, List[Row]] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as error:
        raise _unusable_checkpoint(path, error)
    if not lines:
        return {}
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError:
        header = None
    if not isinstance(header, dict):
        raise ExperimentConfigError(f"checkpoint {path!r} has a corrupt header")
    if header.get("fingerprint") != fingerprint:
        raise ExperimentConfigError(
            f"checkpoint {path!r} was written by a different sweep configuration; "
            "delete it (or point --checkpoint elsewhere) to start fresh"
        )
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            # An interrupt can truncate the final line; everything before it
            # is intact, so resume from there.
            break
        if not (isinstance(record, dict) and {"task_id", "rows"} <= record.keys()):
            raise ExperimentConfigError(f"checkpoint {path!r} line {number} is not a task record")
        completed[record["task_id"]] = record["rows"]
    return completed


def _unusable_checkpoint(path, error: OSError) -> ExperimentConfigError:
    return ExperimentConfigError(f"cannot use checkpoint {path!r}: {error.strerror or error}")


def _repair_checkpoint(path) -> None:
    """Truncate a torn final line left by an interrupted write.

    Records are written as single newline-terminated lines, so an interrupt
    can only leave a partial *final* line with no trailing newline.  Without
    the truncation, appending the next record would fuse it onto the torn
    tail, producing a permanently corrupt line that silently drops every
    record after it on subsequent resumes.
    """
    if path is None or not os.path.exists(path):
        return
    try:
        with open(path, "r+b") as handle:
            content = handle.read()
            if content and not content.endswith(b"\n"):
                handle.truncate(content.rfind(b"\n") + 1)
    except OSError as error:
        raise _unusable_checkpoint(path, error)


def _open_checkpoint(path, fingerprint: str, already_exists: bool):
    try:
        handle = open(path, "a", encoding="utf-8")
    except OSError as error:
        raise _unusable_checkpoint(path, error)
    if not already_exists:
        handle.write(json.dumps({"fingerprint": fingerprint}) + "\n")
        handle.flush()
    return handle


def _append_checkpoint(handle, task_id: str, rows: List[Row], elapsed: float) -> None:
    handle.write(
        json.dumps({"task_id": task_id, "elapsed": elapsed, "rows": rows}) + "\n"
    )
    handle.flush()
    os.fsync(handle.fileno())


# --------------------------------------------------------------------------- #
# The sweep driver

@dataclass
class SweepResult:
    """Outcome of :func:`run_sweep`."""

    rows: List[Row]
    completed_task_ids: List[str]
    resumed_task_ids: List[str]
    pending_task_ids: List[str]
    elapsed_seconds: float
    workers: int
    incremental: bool

    @property
    def finished(self) -> bool:
        """``True`` when no task is left pending (the sweep covered the plan)."""
        return not self.pending_task_ids


def run_sweep(
    config: ExperimentConfig,
    kinds: Sequence[str] = SWEEP_KINDS,
    workers: int = 1,
    checkpoint_path=None,
    incremental: bool = True,
    max_tasks: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    tracer: Optional[AnyTracer] = None,
) -> SweepResult:
    """Run (or resume) a workload sweep and return its rows in plan order.

    Parameters
    ----------
    kinds:
        Which kinds to cover: any of :data:`KINDS` (default: the
        synthetic grid's ``"sl"``, ``"l"`` and ``"shapes"``).
    workers:
        Process-pool size; ``1`` executes in-process (no pool).
    checkpoint_path:
        JSONL file receiving one record per completed task.  When it already
        holds records for this configuration, those tasks are skipped and
        their rows reused verbatim.
    incremental:
        Use the incremental prefix-view pipeline (delta shape discovery +
        resumed simplification).  ``False`` runs the paper's from-scratch
        pipeline per view — the differential baseline.
    max_tasks:
        Stop after completing this many tasks (simulates an interrupted
        sweep; the checkpoint stays valid for resumption).
    progress:
        Optional callable receiving one human-readable line per event.
    tracer:
        A :class:`repro.obs.Tracer` (or ``None``).  When given, the sweep
        emits ``sweep_start``, one ``sweep_task`` per task (resumed tasks
        included, with ``dur`` 0.0 — checkpoint reuse costs no execution),
        and ``sweep_end``; tracing never changes the rows.
    """
    if workers < 1:
        raise ExperimentConfigError("workers must be >= 1")
    kinds = tuple(dict.fromkeys(kinds))
    tasks = plan_sweep(config, kinds)
    fingerprint = sweep_fingerprint(config, kinds, incremental)
    _repair_checkpoint(checkpoint_path)
    completed = load_checkpoint(checkpoint_path, fingerprint)
    resumed_ids = [task.task_id for task in tasks if task.task_id in completed]
    pending = [task for task in tasks if task.task_id not in completed]
    if max_tasks is not None:
        pending = pending[:max_tasks]
    # Workers only need the D* store when a pending task will actually touch
    # it — a resumed sweep whose remaining tasks are all "sl" skips the build.
    pending_kinds = tuple(sorted({task.kind for task in pending}))

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    note(
        f"sweep: {len(tasks)} tasks planned, {len(resumed_ids)} resumed from "
        f"checkpoint, {len(pending)} to run with {workers} worker(s)"
    )
    active_tracer = as_tracer(tracer)
    traced = active_tracer.enabled
    kind_of = {task.task_id: task.kind for task in tasks}
    if traced:
        active_tracer.emit(
            "sweep_start", n_tasks=len(tasks), workers=workers, kinds=list(kinds)
        )
        for task_id in resumed_ids:
            active_tracer.emit(
                "sweep_task",
                task_id=task_id,
                kind=kind_of[task_id],
                rows=len(completed[task_id]),
                resumed=True,
                dur=0.0,
            )

    handle = None
    if checkpoint_path is not None and pending:
        has_header = (
            os.path.exists(checkpoint_path) and os.path.getsize(checkpoint_path) > 0
        )
        handle = _open_checkpoint(checkpoint_path, fingerprint, already_exists=has_header)

    start = perf_counter_s()
    fresh: Dict[str, List[Row]] = {}

    def finish(task_id: str, rows: List[Row], task_elapsed: float) -> None:
        rows = _json_roundtrip(rows)
        fresh[task_id] = rows
        if handle is not None:
            _append_checkpoint(handle, task_id, rows, task_elapsed)
        if traced:
            active_tracer.emit(
                "sweep_task",
                task_id=task_id,
                kind=kind_of[task_id],
                rows=len(rows),
                resumed=False,
                dur=round(task_elapsed, 9),
            )
        note(f"done {task_id} ({len(rows)} rows)")

    try:
        if not pending:
            pass  # fully resumed: nothing to build, nothing to run
        elif workers == 1:
            state = _WorkerState(config, pending_kinds, incremental)
            for task in pending:
                finish(*_run_task(state, task))
        else:
            with futures.ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(config, pending_kinds, incremental),
            ) as pool:
                submitted = [pool.submit(_run_task_in_worker, task) for task in pending]
                for future in futures.as_completed(submitted):
                    finish(*future.result())
    finally:
        if handle is not None:
            handle.close()
    elapsed = perf_counter_s() - start

    all_rows: List[Row] = []
    completed_ids: List[str] = []
    pending_ids: List[str] = []
    for task in tasks:
        if task.task_id in completed:
            all_rows.extend(completed[task.task_id])
            completed_ids.append(task.task_id)
        elif task.task_id in fresh:
            all_rows.extend(fresh[task.task_id])
            completed_ids.append(task.task_id)
        else:
            pending_ids.append(task.task_id)

    if traced:
        active_tracer.emit(
            "sweep_end",
            completed=len(completed_ids),
            pending=len(pending_ids),
            dur=round(elapsed, 9),
        )
    return SweepResult(
        rows=all_rows,
        completed_task_ids=completed_ids,
        resumed_task_ids=resumed_ids,
        pending_task_ids=pending_ids,
        elapsed_seconds=elapsed,
        workers=workers,
        incremental=incremental,
    )


def _json_roundtrip(rows: List[Row]) -> List[Row]:
    """Normalise rows through JSON so fresh and checkpoint-loaded rows are identical.

    Rows that came from a checkpoint passed through ``json.dumps``/``loads``
    (tuples become lists, keys become strings); fresh rows take the same trip
    so a resumed sweep is indistinguishable from an uninterrupted one.
    """
    return json.loads(json.dumps(rows))


# --------------------------------------------------------------------------- #
# Aggregation into the reporting layer

#: Per kind: the grouping columns, the averaged columns and the table title.
_SUMMARIES = (
    ("sl", ("predicate_profile", "tgd_profile"), ("n_rules", "n_edges", "finite"),
     "sweep[sl] (means per profile)"),
    ("l", ("predicate_profile", "tgd_profile", "n_tuples_per_relation"),
     ("n_rules", "n_shapes", "n_simplified_rules", "n_edges", "finite"),
     "sweep[l] (means per profile and view size)"),
    ("shapes", ("predicate_profile", "tgd_profile", "n_tuples_per_relation", "method"),
     ("n_predicates", "n_shapes", "rows_scanned", "queries_issued"),
     "sweep[shapes] (means per profile, view size and method)"),
    ("table1", ("family", "name"), ("n_pred", "n_atoms", "n_shapes", "n_rules"),
     "sweep[table1] (per scenario)"),
    ("table2", ("family", "name"),
     ("n_rules", "n_shapes", "n_simplified_rules", "finite", "shapes_agree"),
     "sweep[table2] (per scenario)"),
    ("static_vs_dynamic", ("rule_set",),
     ("n_rules", "static_size", "static_size_bound", "dynamic_size", "size_ratio"),
     "sweep[static_vs_dynamic] (per rule set)"),
    ("materialization_vs_acyclicity", ("rule_set",),
     ("n_rules", "n_atoms", "acyclicity_finite", "materialization_finite",
      "materialization_conclusive", "atoms_materialized"),
     "sweep[materialization_vs_acyclicity] (per rule set)"),
)

#: Row columns that are deterministic given the configuration (no timings):
#: the task key and every column an aggregate table reads, which is what
#: makes resumed sweeps byte-identical to uninterrupted ones.
DETERMINISTIC_COLUMNS = tuple(dict.fromkeys(
    ("task_id", "kind") + tuple(column for _, group_by, values, _ in _SUMMARIES
                                for column in group_by + values)
))


def sweep_summary(rows: Iterable[Row]) -> str:
    """Render the aggregate tables of a sweep (deterministic columns only).

    Rows are grouped per kind — per combined profile for ``sl``, additionally
    per database size for ``l``, per size and ``FindShapes`` method for
    ``shapes``, per scenario for the tables and per rule set for the
    ablations — and averaged over the deterministic columns.  Because no
    timing enters the projection, the rendered tables depend only on the
    configuration: resuming an interrupted sweep yields byte-identical output.
    """
    rows = list(rows)
    parts: List[str] = []
    for kind, group_by, value_columns, title in _SUMMARIES:
        kind_rows = [row for row in rows if row.get("kind") == kind]
        if kind_rows:
            parts.append(format_table(group_mean(kind_rows, group_by, value_columns), title=title))
    if not parts:
        return "(no rows)"
    return "\n\n".join(parts)
