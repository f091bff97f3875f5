"""Command-line interface: ``repro-experiments``.

Subcommands
-----------
``check``
    Run a termination check on a rule file (and optional fact file).
``chase``
    Run one of the chase engines on a rule file (and optional fact file),
    choosing the variant, the trigger strategy
    (indexed/naive/sql/sql-pushdown), and the store backend
    (instance/relational/sqlite[:path]).
``run``
    Regenerate one of the paper's figures or tables and print its rows
    (optionally writing them to CSV).
``sweep``
    Run the parallel, checkpointed workload sweep: the simple-linear grid
    and/or the linear prefix-view ladder, fanned across a process pool,
    resumable from a JSONL checkpoint.
``fuzz``
    Run the differential fuzzing harness: replay a committed corpus and/or
    mutate adversarial seed programs, checking every engine combination
    against the byte-identity, budget, round-trip, and termination oracles.
``trace-report``
    Render the profile of a JSONL trace (written by ``--trace`` on
    ``chase``/``sweep``/``fuzz``): hot rules, hot SQL statement families,
    and the per-round table.
``list``
    List the available experiments and presets.

Examples
--------
::

    repro-experiments check --rules rules.txt --facts data.txt
    repro-experiments chase --rules rules.txt --facts data.txt --variant restricted
    repro-experiments chase --rules rules.txt --strategy naive --backend relational
    repro-experiments chase --rules rules.txt --backend sqlite:chase.db --strategy sql-pushdown
    repro-experiments chase --rules rules.txt --backend sqlite:chase.db --no-materialize
    repro-experiments chase --rules rules.txt --parallel 4
    repro-experiments chase --rules rules.txt --parallel 4 --backend relational --executor process
    repro-experiments run figure1 --preset smoke
    repro-experiments run table2 --csv table2.csv
    repro-experiments sweep --preset smoke --workers 4 --checkpoint sweep.jsonl
    repro-experiments sweep --kinds l --from-scratch --csv sweep.csv
    repro-experiments sweep --kinds chase --chase-workers 4 --chase-backend sqlite
    repro-experiments fuzz --time-budget 30 --corpus tests/regressions/corpus
    repro-experiments fuzz --replay tests/regressions/corpus
    repro-experiments fuzz --max-cases 20 --families heavy_skew,null_churn --seed 7
    repro-experiments chase --rules rules.txt --trace chase-trace.jsonl
    repro-experiments trace-report chase-trace.jsonl --top 5
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .chase.engine import BACKENDS, chase, make_backend_store
from .chase.matching import STRATEGIES
from .chase.exchange import EXCHANGES
from .chase.parallel import EXECUTORS
from .chase.result import ChaseLimits
from .core.instances import Database, induced_database
from .core.parser import load_database, load_rules
from .exceptions import (
    ExperimentConfigError,
    NotLinearError,
    NotSimpleLinearError,
    ParallelWorkerError,
    ParseError,
    StorageError,
)
from .experiments import (
    ABLATION_RUNNERS,
    ALL_RUNNERS,
    PRESETS,
    preset,
)
from .experiments.reporting import format_table, summarize_figure, write_csv
from .experiments.runner import SWEEP_KINDS, run_sweep, sweep_summary
from .obs.clock import perf_counter_s
from .termination import is_chase_finite_l, is_chase_finite_sl


def non_negative_int(text: str) -> int:
    """Argparse type of the chase budgets (the name is what a bad value's message shows)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Chase-termination checkers and the VLDB'23 experiment harness.",
    )
    subparsers = parser.add_subparsers(dest="command")

    check = subparsers.add_parser("check", help="check chase termination for a rule file")
    check.add_argument("--rules", required=True, help="path to the rule file")
    check.add_argument("--facts", help="path to the fact file (defaults to the induced database)")
    check.add_argument(
        "--algorithm",
        choices=("auto", "sl", "l"),
        default="auto",
        help="which checker to run (auto picks SL when the rules are simple-linear)",
    )

    chase_cmd = subparsers.add_parser("chase", help="run a chase engine on a rule file")
    chase_cmd.add_argument("--rules", required=True, help="path to the rule file")
    chase_cmd.add_argument("--facts", help="path to the fact file (defaults to the induced database)")
    chase_cmd.add_argument(
        "--variant",
        choices=("oblivious", "semi-oblivious", "restricted"),
        default="semi-oblivious",
        help="chase variant (default: semi-oblivious)",
    )
    chase_cmd.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="indexed",
        help="trigger engine: delta-driven index joins, the naive reference, "
        "or sql-pushdown — whole set-based rounds compiled into SQLite "
        "(default: indexed)",
    )
    chase_cmd.add_argument(
        "--backend",
        default="instance",
        metavar="{instance,relational,sqlite[:path]}",
        help="store backend the chase materialises into; 'sqlite' is a "
        "transient in-memory database, 'sqlite:<path>' a persistent file "
        "(default: instance)",
    )
    chase_cmd.add_argument("--max-atoms", type=non_negative_int, default=100_000, help="atom budget (default: 100000)")
    chase_cmd.add_argument("--max-rounds", type=non_negative_int, help="round budget (default: unlimited)")
    chase_cmd.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="hash-partitioned chase workers; the result is identical for every N (default: 1)",
    )
    chase_cmd.add_argument(
        "--executor",
        choices=EXECUTORS,
        default="auto",
        help="worker pool kind for --parallel > 1: threads for the instance "
        "backend, processes with store replicas for the relational and "
        "sqlite ones (default: auto)",
    )
    chase_cmd.add_argument(
        "--exchange",
        choices=EXCHANGES,
        default="coordinator",
        help="round protocol for --parallel > 1: 'coordinator' merges every "
        "round through the coordinator, 'shuffle' repartitions results "
        "directly between peer workers with skew-split load balancing "
        "(default: coordinator)",
    )
    chase_cmd.add_argument(
        "--trace",
        metavar="PATH",
        help="write a JSONL event trace of the run (chase_start, per-round "
        "and per-rule events, SQL statement-family timings, chase_end); "
        "render it with 'repro-experiments trace-report PATH'",
    )
    chase_cmd.add_argument(
        "--no-materialize",
        action="store_true",
        help="skip building the in-memory result instance; counts are "
        "reported from the store, so a chase into a persistent sqlite file "
        "never loads its fixpoint into RAM",
    )

    run = subparsers.add_parser("run", help="regenerate a figure, table, or ablation")
    run.add_argument("experiment", help="experiment id (see 'list')")
    run.add_argument("--preset", default="default", choices=sorted(PRESETS), help="scale preset")
    run.add_argument("--csv", help="write the raw rows to this CSV file")
    run.add_argument("--raw", action="store_true", help="print raw rows instead of the grouped summary")
    run.add_argument("--scale", type=float, help="data scale for table runs (scenario builders)")
    run.add_argument(
        "--scenarios",
        help="comma-separated scenario names for table runs (default: all laptop-sized scenarios)",
    )

    sweep = subparsers.add_parser(
        "sweep", help="run the parallel, checkpointed workload sweep"
    )
    sweep.add_argument("--preset", default="smoke", choices=sorted(PRESETS), help="scale preset")
    sweep.add_argument(
        "--workers", type=int, default=1, help="process-pool size (default: 1, in-process)"
    )
    sweep.add_argument(
        "--kinds",
        default=",".join(SWEEP_KINDS),
        help="comma-separated workload kinds: sl, l, chase (default: all)",
    )
    sweep.add_argument(
        "--chase-workers",
        type=int,
        default=1,
        metavar="N",
        help="parallel-chase workers per 'chase' task; aggregate tables are "
        "identical for every N (raw rows keep the timing and worker count) "
        "(default: 1)",
    )
    sweep.add_argument(
        "--chase-backend",
        choices=BACKENDS,
        default="instance",
        help="store backend for 'chase' tasks; like --chase-workers it is an "
        "execution knob that never changes the aggregate tables "
        "(default: instance)",
    )
    sweep.add_argument(
        "--checkpoint",
        help="JSONL checkpoint file; an interrupted sweep resumes from it",
    )
    sweep.add_argument(
        "--from-scratch",
        action="store_true",
        help="disable incremental prefix-view reuse (the paper's per-view pipeline)",
    )
    sweep.add_argument(
        "--limit",
        type=int,
        help="stop after this many tasks (the checkpoint stays resumable; "
        "exit code 3 signals that tasks remain pending)",
    )
    sweep.add_argument(
        "--trace",
        metavar="PATH",
        help="write a JSONL event trace of the sweep (sweep_start, one "
        "sweep_task per task, sweep_end)",
    )
    sweep.add_argument("--csv", help="write the raw rows (timings included) to this CSV file")
    sweep.add_argument("--raw", action="store_true", help="print raw rows instead of the aggregate tables")

    fuzz_cmd = subparsers.add_parser(
        "fuzz", help="differentially fuzz the chase engines against each other"
    )
    fuzz_cmd.add_argument(
        "--time-budget",
        type=float,
        metavar="SECONDS",
        help="wall-clock bound for the run; the clock only cuts the "
        "deterministic case sequence short, it never changes its content",
    )
    fuzz_cmd.add_argument(
        "--max-cases",
        type=int,
        metavar="N",
        help="number of mutated cases to search after the seed replay "
        "(default: 50 when no --time-budget is given; 0 replays seeds only)",
    )
    fuzz_cmd.add_argument(
        "--corpus",
        metavar="DIR",
        help="corpus directory of *.case seed files "
        "(the committed one is tests/regressions/corpus)",
    )
    fuzz_cmd.add_argument(
        "--replay",
        metavar="PATH",
        help="replay one *.case file or a whole corpus directory through the "
        "full oracle battery and exit (no mutation search)",
    )
    fuzz_cmd.add_argument(
        "--seed", type=int, default=0, help="rng seed; the run is a pure function of it (default: 0)"
    )
    fuzz_cmd.add_argument(
        "--pools",
        choices=("quick", "full"),
        default="quick",
        help="parallel-executor profile: quick keeps process pools out of "
        "the search loop; full is what corpus replay uses (default: quick)",
    )
    fuzz_cmd.add_argument(
        "--families",
        help="comma-separated adversarial generator families to seed from "
        "(default: all)",
    )
    fuzz_cmd.add_argument(
        "--save",
        metavar="DIR",
        help="write minimized divergent cases into this directory",
    )
    fuzz_cmd.add_argument(
        "--trace",
        metavar="PATH",
        help="write a JSONL event trace of the run (fuzz_start, one "
        "fuzz_case per case, periodic fuzz_progress, fuzz_end)",
    )
    fuzz_cmd.add_argument(
        "--max-atoms", type=non_negative_int, default=300, help="per-run atom budget (default: 300)"
    )
    fuzz_cmd.add_argument(
        "--max-rounds", type=non_negative_int, default=10, help="per-run round budget (default: 10)"
    )

    trace_report = subparsers.add_parser(
        "trace-report", help="render the profile tables of a JSONL trace"
    )
    trace_report.add_argument("trace", help="trace file written by --trace")
    trace_report.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="rows per hot-rule/hot-statement table (default: 10)",
    )

    subparsers.add_parser("list", help="list available experiments and presets")
    return parser


def _open_tracer(path: Optional[str], tool: str):
    """Open a ``--trace`` JSONL tracer, or ``None`` when the flag is absent.

    Raises :class:`OSError` for unwritable paths; callers translate it into
    the one-line, exit-code-2 contract shared by every input error.
    """
    if path is None:
        return None
    from .obs import JsonlTraceSink, Tracer

    return Tracer(JsonlTraceSink(path), tool=tool)


def _load_program(rules_path, facts_path):
    """Load the rule/fact inputs shared by ``check`` and ``chase``.

    Raises :class:`ParseError` or :class:`OSError`; callers translate both
    into the documented one-line, exit-code-2 contract — a malformed rule
    file must never escape as a traceback.
    """
    tgds = load_rules(rules_path)
    if facts_path:
        database = load_database(facts_path)
    else:
        database = induced_database(tgds)
    return database, tgds


def _input_error(error) -> str:
    if isinstance(error, OSError):
        name = getattr(error, "filename", None)
        return f"cannot read {name}: {error.strerror}" if name else str(error)
    return str(error)


def _command_check(args) -> int:
    try:
        database, tgds = _load_program(args.rules, args.facts)
    except (ParseError, OSError) as error:
        print(_input_error(error), file=sys.stderr)
        return 2

    algorithm = args.algorithm
    if algorithm == "auto":
        algorithm = "sl" if tgds.is_simple_linear() else "l"
    try:
        if algorithm == "sl":
            report = is_chase_finite_sl(database, tgds)
        else:
            report = is_chase_finite_l(database, tgds)
    except (NotLinearError, NotSimpleLinearError) as error:
        print(f"{args.rules}: {error}", file=sys.stderr)
        return 2

    verdict = "FINITE" if report.finite else "INFINITE"
    print(f"{report.algorithm}: the semi-oblivious chase is {verdict}")
    for key, value in sorted(report.statistics.items()):
        print(f"  {key}: {value}")
    for key, value in report.timings.as_dict().items():
        print(f"  {key}: {value * 1000:.2f} ms")
    return 0


def _command_chase(args) -> int:
    try:
        database, tgds = _load_program(args.rules, args.facts)
    except (ParseError, OSError) as error:
        print(_input_error(error), file=sys.stderr)
        return 2

    if args.parallel < 1:
        print("--parallel must be >= 1", file=sys.stderr)
        return 2
    if args.parallel > 1 and args.strategy not in ("indexed", "sql-pushdown"):
        print(
            "--parallel runs the indexed or sql-pushdown engines; drop "
            f"--strategy {args.strategy} or use --parallel 1",
            file=sys.stderr,
        )
        return 2
    try:
        store = make_backend_store(args.backend)
    except (ValueError, StorageError) as error:
        print(str(error), file=sys.stderr)
        return 2
    from .storage.sqlbackend import SqliteAtomStore

    if args.strategy == "sql-pushdown" and not isinstance(store, SqliteAtomStore):
        print(
            "--strategy sql-pushdown pushes work into SQLite and "
            "requires --backend sqlite[:path]",
            file=sys.stderr,
        )
        return 2
    limits = ChaseLimits(max_atoms=args.max_atoms, max_rounds=args.max_rounds)
    try:
        tracer = _open_tracer(args.trace, "chase")
    except OSError as error:
        print(
            f"cannot write trace {args.trace}: {error.strerror or error}",
            file=sys.stderr,
        )
        return 2
    start = perf_counter_s()
    try:
        result = chase(
            database,
            tgds,
            variant=args.variant,
            limits=limits,
            strategy=args.strategy,
            store=store,
            workers=args.parallel,
            executor=args.executor,
            exchange=args.exchange,
            materialize=not args.no_materialize,
            tracer=tracer,
        )
    except StorageError as error:
        # E.g. reopening a persisted file with rules that recreate one of
        # its predicates at a different arity: same one-line contract as
        # the backend-spec errors above.
        print(str(error), file=sys.stderr)
        return 2
    except ParallelWorkerError as error:
        # The run failed at run time.  chase() flushed a persistent store on
        # the way out, so the file holds a resumable prefix of the chase.
        print(str(error).splitlines()[0], file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Same flush, so an interrupted persistent run resumes by rerunning it;
        # 3 is the "work remains pending" code of sweep and fuzz.
        resumable = isinstance(store, SqliteAtomStore) and store.is_persistent
        hint = f"; {store.path} holds a resumable prefix, rerun to continue" if resumable else ""
        print(f"interrupted{hint}", file=sys.stderr)
        return 3
    finally:
        if tracer is not None:
            tracer.close()
    elapsed = perf_counter_s() - start

    pool = f"/{args.parallel}w" if args.parallel != 1 else ""
    if pool and args.exchange != "coordinator":
        pool += f"/{args.exchange}"
    status = "reached a fixpoint" if result.terminated else f"stopped ({result.stop_reason})"
    print(f"{args.variant} chase [{args.strategy}/{args.backend}{pool}]: {status}")
    print(f"  rounds: {result.rounds}")
    print(f"  triggers_fired: {result.triggers_fired}")
    print(f"  atoms_created: {result.atoms_created}")
    # size() reads the store's count: identical to len(result.instance) but
    # safe under --no-materialize (the fixpoint stays on disk).
    print(f"  instance_size: {result.size()}")
    print(f"  materialized: {'yes' if result.is_materialized else 'no'}")
    if isinstance(store, SqliteAtomStore) and store.is_persistent:
        print(f"  store_atoms: {store.atom_count()}")
        print(f"  store_file: {store.path} ({store.file_size()} bytes)")
    print(f"  elapsed: {elapsed * 1000:.2f} ms")
    if args.trace:
        print(f"  trace: {args.trace}")
    return 0


def _command_run(args) -> int:
    runners = {**ALL_RUNNERS, **ABLATION_RUNNERS}
    if args.experiment not in runners:
        print(f"unknown experiment {args.experiment!r}; run 'repro-experiments list'", file=sys.stderr)
        return 2
    runner = runners[args.experiment]
    try:
        if args.experiment.startswith("table"):
            names = args.scenarios.split(",") if args.scenarios else None
            rows = runner(names=names, scale=args.scale)
        else:
            rows = runner(preset(args.preset))
    except ExperimentConfigError as error:
        print(f"run failed: {error}", file=sys.stderr)
        return 2
    if args.csv:
        write_csv(rows, args.csv)
        print(f"wrote {len(rows)} rows to {args.csv}")
    if args.raw:
        print(format_table(rows, title=args.experiment))
    else:
        print(summarize_figure(rows))
    return 0


def _command_sweep(args) -> int:
    kinds = tuple(kind.strip() for kind in args.kinds.split(",") if kind.strip())
    unknown = [kind for kind in kinds if kind not in SWEEP_KINDS]
    if unknown or not kinds:
        print(
            f"unknown sweep kind(s) {','.join(unknown) or '(none)'}; "
            f"expected a comma-separated subset of {','.join(SWEEP_KINDS)}",
            file=sys.stderr,
        )
        return 2
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if args.chase_workers < 1:
        print("--chase-workers must be >= 1", file=sys.stderr)
        return 2
    if args.limit is not None and args.limit < 1:
        print("--limit must be >= 1", file=sys.stderr)
        return 2
    try:
        tracer = _open_tracer(args.trace, "sweep")
    except OSError as error:
        print(
            f"cannot write trace {args.trace}: {error.strerror or error}",
            file=sys.stderr,
        )
        return 2
    try:
        result = run_sweep(
            preset(args.preset),
            kinds=kinds,
            workers=args.workers,
            checkpoint_path=args.checkpoint,
            incremental=not args.from_scratch,
            max_tasks=args.limit,
            progress=print,
            chase_workers=args.chase_workers,
            chase_backend=args.chase_backend,
            tracer=tracer,
        )
    except ExperimentConfigError as error:
        print(f"sweep failed: {error}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.close()
    if args.csv:
        write_csv(result.rows, args.csv)
        print(f"wrote {len(result.rows)} rows to {args.csv}")
    if args.raw:
        print(format_table(result.rows, title="sweep"))
    else:
        print(sweep_summary(result.rows))
    mode = "incremental" if result.incremental else "from-scratch"
    print(
        f"sweep [{mode}]: {len(result.completed_task_ids)} task(s) done "
        f"({len(result.resumed_task_ids)} resumed), {len(result.pending_task_ids)} pending, "
        f"{result.elapsed_seconds:.2f} s with {result.workers} worker(s)"
    )
    return 0 if result.finished else 3


def _command_fuzz(args) -> int:
    from pathlib import Path

    from .fuzz import fuzz, load_case, replay_case, replay_corpus
    from .fuzz.oracles import Divergence  # noqa: F401 - documents the report shape
    from .generators.adversarial import FAMILY_NAMES

    if args.time_budget is not None and args.time_budget < 0:
        print("--time-budget must be >= 0", file=sys.stderr)
        return 2
    if args.max_cases is not None and args.max_cases < 0:
        print("--max-cases must be >= 0", file=sys.stderr)
        return 2
    families = None
    if args.families:
        families = tuple(name.strip() for name in args.families.split(",") if name.strip())
        unknown = sorted(set(families) - set(FAMILY_NAMES))
        if unknown:
            print(
                f"unknown adversarial families {','.join(unknown)}; "
                f"expected a comma-separated subset of {','.join(FAMILY_NAMES)}",
                file=sys.stderr,
            )
            return 2
    limits = ChaseLimits(max_atoms=args.max_atoms, max_rounds=args.max_rounds)
    try:
        tracer = _open_tracer(args.trace, "fuzz")
    except OSError as error:
        print(
            f"cannot write trace {args.trace}: {error.strerror or error}",
            file=sys.stderr,
        )
        return 2

    if args.replay is not None:
        path = Path(args.replay)
        try:
            if path.is_dir():
                report = replay_corpus(
                    path, limits=limits, pools=args.pools, log=print, tracer=tracer
                )
            else:
                case = load_case(path)
                started = tracer.now() if tracer is not None else 0.0
                if tracer is not None:
                    tracer.emit("fuzz_start", seeds=1, pools=args.pools)
                outcome = replay_case(case, limits=limits, pools=args.pools)
                if tracer is not None:
                    elapsed = round(tracer.now() - started, 9)
                    tracer.emit(
                        "fuzz_case", name=case.name, status=outcome.status, dur=elapsed
                    )
                    tracer.emit(
                        "fuzz_end",
                        cases=1,
                        divergent=len(outcome.divergences),
                        coverage_edges=0,
                        pool_size=0,
                        dur=elapsed,
                    )
                if outcome.status == "waived":
                    print(f"waived   {outcome.case.name}: {outcome.case.waived}")
                    return 0
                for divergence in outcome.divergences:
                    print(f"DIVERGED {outcome.case.name}: {divergence}")
                print(f"replayed {outcome.case.name}: {outcome.status}")
                return 0 if outcome.status == "ok" else 1
        except ParseError as error:
            print(str(error), file=sys.stderr)
            return 2
        finally:
            if tracer is not None:
                tracer.close()
        print(report.summary())
        return 0 if report.ok else 1

    try:
        report = fuzz(
            time_budget=args.time_budget,
            max_cases=args.max_cases,
            corpus_dir=args.corpus,
            seed=args.seed,
            pools=args.pools,
            families=families,
            limits=limits,
            save_dir=args.save,
            log=print,
            tracer=tracer,
        )
    except ParseError as error:
        print(str(error), file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.close()
    print(report.summary())
    for outcome in report.divergent:
        for divergence in outcome.divergences:
            print(f"  {outcome.case.name}: {divergence}")
    if report.divergent:
        # Divergences win over an interrupt: finding a bug is the headline.
        return 1
    if report.interrupted:
        return 3
    return 0


def _command_trace_report(args) -> int:
    from .obs import TraceFormatError, read_trace, render_report

    if args.top < 1:
        print("--top must be >= 1", file=sys.stderr)
        return 2
    try:
        events = read_trace(args.trace)
    except (TraceFormatError, OSError) as error:
        print(_input_error(error), file=sys.stderr)
        return 2
    try:
        print(render_report(events, top=args.top))
    except TraceFormatError as error:
        # E.g. round totals that do not sum to the chase_end counters: a
        # corrupt or hand-edited trace, reported on one line like any other
        # malformed input.
        print(str(error), file=sys.stderr)
        return 2
    return 0


def _command_list() -> int:
    print("experiments:")
    for name in sorted({**ALL_RUNNERS, **ABLATION_RUNNERS}):
        print(f"  {name}")
    print("presets:")
    for name in sorted(PRESETS):
        print(f"  {name}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro-experiments`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "check":
        return _command_check(args)
    if args.command == "chase":
        return _command_chase(args)
    if args.command == "run":
        return _command_run(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "fuzz":
        return _command_fuzz(args)
    if args.command == "trace-report":
        return _command_trace_report(args)
    if args.command == "list":
        return _command_list()
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
