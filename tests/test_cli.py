"""Tests for the repro-experiments command-line interface."""

import json

import pytest

from repro.cli import main
from repro.obs import read_trace
from tests.helpers import revert_quote_aware_comments


@pytest.fixture
def rule_file(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("R(x,y) -> R(y,z)\n")
    return path


@pytest.fixture
def finite_rule_file(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("R(x,y) -> S(y,z)\nS(x,y) -> T(x)\n")
    return path


@pytest.fixture
def fact_file(tmp_path):
    path = tmp_path / "facts.txt"
    path.write_text("R(a,b).\n")
    return path


def _transitive_closure_chase(tmp_path, db_path):
    """argv of a six-edge, several-round chase into the sqlite file *db_path*."""
    rules = tmp_path / "tc.txt"
    rules.write_text("path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z).\n")
    facts = tmp_path / "edges.txt"
    facts.write_text("".join(f"edge(n{i}, n{i + 1}).\n" for i in range(6)))
    return ["chase", "--rules", str(rules), "--facts", str(facts), "--backend", f"sqlite:{db_path}"]


class TestCheckCommand:
    def test_infinite_verdict(self, rule_file, fact_file, capsys):
        assert main(["check", "--rules", str(rule_file), "--facts", str(fact_file)]) == 0
        output = capsys.readouterr().out
        assert "INFINITE" in output
        assert "IsChaseFinite[SL]" in output

    def test_finite_verdict_with_induced_database(self, finite_rule_file, capsys):
        assert main(["check", "--rules", str(finite_rule_file)]) == 0
        assert "FINITE" in capsys.readouterr().out

    def test_forced_linear_algorithm(self, rule_file, fact_file, capsys):
        assert main(["check", "--rules", str(rule_file), "--facts", str(fact_file), "--algorithm", "l"]) == 0
        assert "IsChaseFinite[L]" in capsys.readouterr().out

    def test_auto_picks_l_for_non_simple_rules(self, tmp_path, capsys):
        path = tmp_path / "rules.txt"
        path.write_text("R(x,x) -> R(z,x)\n")
        facts = tmp_path / "facts.txt"
        facts.write_text("R(a,b).\n")
        assert main(["check", "--rules", str(path), "--facts", str(facts)]) == 0
        assert "IsChaseFinite[L]" in capsys.readouterr().out

    def test_timings_include_the_parse(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("".join(f"R{i}(x,y) -> R{i + 1}(y,z)\n" for i in range(2000)))
        facts = tmp_path / "facts.txt"
        facts.write_text("R0(a,b).\n")
        assert main(["check", "--rules", str(rules), "--facts", str(facts)]) == 0
        timings = {}
        for line in capsys.readouterr().out.splitlines():
            key, _, value = line.strip().partition(": ")
            if value.endswith(" ms"):
                timings[key] = float(value[: -len(" ms")])
        assert timings["t_parse"] > 0
        parameters = ("t_parse", "t_shapes", "t_graph", "t_comp")
        # Each printed value is rounded to 0.01 ms.
        assert timings["t_total"] == pytest.approx(sum(timings[p] for p in parameters), abs=0.03)


class TestChaseCommand:
    @pytest.fixture
    def join_rule_file(self, tmp_path):
        path = tmp_path / "join_rules.txt"
        path.write_text("R(x,y) -> S(y,z)\nS(x,y), R(z,x) -> T(z,y)\n")
        return path

    def test_chase_with_facts(self, join_rule_file, fact_file, capsys):
        assert main(["chase", "--rules", str(join_rule_file), "--facts", str(fact_file)]) == 0
        output = capsys.readouterr().out
        assert "reached a fixpoint" in output
        assert "instance_size" in output

    def test_chase_strategy_and_backend_flags(self, join_rule_file, fact_file, capsys):
        for backend in ("instance", "sqlite"):
            code = main(
                [
                    "chase",
                    "--rules", str(join_rule_file),
                    "--facts", str(fact_file),
                    "--strategy", "indexed",
                    "--backend", backend,
                ]
            )
            assert code == 0
            assert f"[indexed/{backend}]" in capsys.readouterr().out

    def test_chase_pushdown_strategy_on_sqlite_backend(self, join_rule_file, fact_file, capsys):
        code = main(
            [
                "chase",
                "--rules", str(join_rule_file),
                "--facts", str(fact_file),
                "--strategy", "sql-pushdown",
                "--backend", "sqlite",
            ]
        )
        assert code == 0
        assert "[sql-pushdown/sqlite]" in capsys.readouterr().out

    def test_chase_persistent_sqlite_reports_store_stats(
        self, join_rule_file, fact_file, tmp_path, capsys
    ):
        db_path = tmp_path / "chase.db"
        code = main(
            [
                "chase",
                "--rules", str(join_rule_file),
                "--facts", str(fact_file),
                "--backend", f"sqlite:{db_path}",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "store_atoms: " in output
        assert f"store_file: {db_path} (" in output
        assert db_path.exists() and db_path.stat().st_size > 0
        # The transient backends stay quiet about store files.
        assert main(
            ["chase", "--rules", str(join_rule_file), "--facts", str(fact_file)]
        ) == 0
        assert "store_file" not in capsys.readouterr().out

    def test_chase_no_materialize_reports_counts_from_the_store(
        self, join_rule_file, fact_file, tmp_path, capsys, monkeypatch
    ):
        # --no-materialize must never decode the fixpoint into an Instance:
        # poison the one decoder and the run still reports every count.
        from repro.storage.atom_store import InstanceView

        monkeypatch.setattr(
            InstanceView,
            "to_instance",
            lambda store: pytest.fail("--no-materialize must not materialize"),
        )
        code = main(
            [
                "chase",
                "--rules", str(join_rule_file),
                "--facts", str(fact_file),
                "--backend", f"sqlite:{tmp_path / 'lazy.db'}",
                "--no-materialize",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "materialized: no" in output
        assert "instance_size: " in output
        assert "store_atoms: " in output

    def test_chase_no_materialize_stats_match_the_eager_run(
        self, join_rule_file, fact_file, capsys
    ):
        def stats(argv):
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            return [
                line
                for line in lines
                if "elapsed" not in line and "materialized" not in line
            ]

        base = [
            "chase", "--rules", str(join_rule_file), "--facts", str(fact_file),
            "--backend", "sqlite",
        ]
        eager = stats(base)
        assert stats(base + ["--no-materialize"]) == eager
        # The default run reports that it did materialise.
        assert main(base) == 0
        assert "materialized: yes" in capsys.readouterr().out

    def test_chase_budget_stop(self, rule_file, fact_file, capsys):
        code = main(
            ["chase", "--rules", str(rule_file), "--facts", str(fact_file), "--max-atoms", "20"]
        )
        assert code == 0
        assert "stopped (max_atoms)" in capsys.readouterr().out

    def test_chase_induced_database_default(self, join_rule_file, capsys):
        assert main(["chase", "--rules", str(join_rule_file), "--variant", "restricted"]) == 0
        assert "restricted chase" in capsys.readouterr().out

    def test_chase_parallel_matches_serial_output(self, join_rule_file, fact_file, capsys):
        def stats(argv):
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            return [line for line in lines if "elapsed" not in line and "[" not in line]

        base = ["chase", "--rules", str(join_rule_file), "--facts", str(fact_file)]
        serial = stats(base)
        for pool in (
            "--parallel 2",
            "--parallel 4",
            "--parallel 2 --executor serial",
            "--parallel 2 --executor process",
            "--parallel 4 --executor process --backend sqlite",
        ):
            assert stats(base + pool.split()) == serial

    def test_chase_parallel_banner_names_the_pool(self, join_rule_file, fact_file, capsys):
        assert main(
            ["chase", "--rules", str(join_rule_file), "--facts", str(fact_file), "--parallel", "4"]
        ) == 0
        assert "[indexed/instance/4w]" in capsys.readouterr().out

    def test_chase_invalid_parallel(self, join_rule_file, capsys):
        assert main(["chase", "--rules", str(join_rule_file), "--parallel", "0"]) == 2
        assert "--parallel" in capsys.readouterr().err

    def test_chase_rejects_the_retired_naive_strategy(self, join_rule_file, capsys):
        # The naive enumeration is the fuzz oracle's reference, not a strategy:
        # argparse refuses it like any unknown choice, serial or parallel.
        for parallel in ("1", "2"):
            with pytest.raises(SystemExit) as excinfo:
                main(
                    [
                        "chase", "--rules", str(join_rule_file),
                        "--strategy", "naive", "--parallel", parallel,
                    ]
                )
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            (error_line,) = [line for line in err.splitlines() if "error:" in line]
            assert "invalid choice: 'naive'" in error_line


class TestRunCommand:
    def test_unknown_experiment(self, capsys):
        assert main(["run", "figure99"]) == 2

    def test_run_figure_smoke(self, capsys, tmp_path):
        csv_path = tmp_path / "figure1.csv"
        assert main(["run", "figure1", "--preset", "smoke", "--csv", str(csv_path)]) == 0
        output = capsys.readouterr().out
        assert "figure1" in output
        assert csv_path.exists()

    def test_run_table_smoke(self, capsys):
        assert main(["run", "table1", "--raw", "--scenarios", "LUBM-1"]) == 0
        assert "LUBM-1" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [["--scale", "3"], ["--scenarios", "LUBM-1"]])
    def test_table_only_flags_rejected_on_figures(self, capsys, flag):
        assert main(["run", "figure1", "--preset", "smoke", *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "table runs only" in captured.err


class TestErrorPaths:
    """Unknown flag values must exit non-zero with a readable message."""

    def _assert_argparse_rejects(self, argv, capsys, fragment):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        stderr = capsys.readouterr().err
        assert "invalid choice" in stderr
        assert fragment in stderr

    def test_unknown_backend(self, rule_file, capsys):
        # --backend is free-form (it must admit sqlite:<path>), so the CLI
        # validates it itself: exit 2 with a one-line message, no traceback.
        # The retired relational chase backend is just another unknown name.
        for backend in ("oracle", "relational"):
            assert main(["chase", "--rules", str(rule_file), "--backend", backend]) == 2
            (stderr,) = capsys.readouterr().err.splitlines()
            assert backend in stderr and "sqlite" in stderr

    def test_malformed_sqlite_spec(self, rule_file, capsys):
        assert main(["chase", "--rules", str(rule_file), "--backend", "sqlite:"]) == 2
        stderr = capsys.readouterr().err
        assert "malformed sqlite backend spec" in stderr
        assert "Traceback" not in stderr

    def test_unopenable_sqlite_path(self, rule_file, tmp_path, capsys):
        bogus = tmp_path / "missing" / "dir" / "chase.db"
        assert main(
            ["chase", "--rules", str(rule_file), "--backend", f"sqlite:{bogus}"]
        ) == 2
        assert "cannot open sqlite database" in capsys.readouterr().err

    def test_pushdown_strategy_requires_sqlite_backend(self, rule_file, capsys):
        assert main(["chase", "--rules", str(rule_file), "--strategy", "sql-pushdown"]) == 2
        assert "--backend sqlite" in capsys.readouterr().err

    def test_pushdown_strategy_refuses_parallel_workers(self, rule_file, tmp_path, capsys):
        # sql-pushdown is serial: one stderr line, no traceback, and no
        # store file opened for the refused run.
        db_path = tmp_path / "never.db"
        for backend in ("sqlite", f"sqlite:{db_path}"):
            assert main(
                [
                    "chase", "--rules", str(rule_file), "--parallel", "2",
                    "--strategy", "sql-pushdown", "--backend", backend,
                ]
            ) == 2
            (stderr,) = capsys.readouterr().err.splitlines()
            assert "sql-pushdown runs serially" in stderr and "--parallel" in stderr
        assert not db_path.exists()

    def test_removed_sql_strategy_is_an_argparse_error(self, rule_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["chase", "--rules", str(rule_file), "--strategy", "sql", "--backend", "sqlite"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'sql'" in capsys.readouterr().err

    def test_reopened_file_with_conflicting_arity_exits_two(self, tmp_path, capsys):
        # Reopening a persisted file with rules that recreate one of its
        # predicates at a different arity: one-line exit 2, no traceback.
        db_path = tmp_path / "resume.db"
        two = tmp_path / "two.txt"
        two.write_text("R(x,y) -> S(y,z)\n")
        three = tmp_path / "three.txt"
        three.write_text("R(x,y) -> S(x,y,z)\n")
        facts = tmp_path / "facts.txt"
        facts.write_text("R(a,b).\n")
        base = ["chase", "--facts", str(facts), "--backend", f"sqlite:{db_path}"]
        assert main(base + ["--rules", str(two)]) == 0
        capsys.readouterr()
        assert main(base + ["--rules", str(three)]) == 2
        stderr = capsys.readouterr().err
        assert "already exists with arity" in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("flag", ["--max-atoms", "--max-rounds"])
    @pytest.mark.parametrize("command", ["chase", "fuzz"])
    def test_negative_chase_budgets_exit_two(self, rule_file, capsys, command, flag):
        # Used to run a round and report "stopped (max_atoms)" with exit 0.
        argv = [command, flag, "-5"] + (["--rules", str(rule_file)] if command == "chase" else [])
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"argument {flag}: must be >= 0, got -5" in capsys.readouterr().err

    def test_zero_budgets_keep_their_meaning(self, rule_file, fact_file, capsys):
        argv = ["chase", "--rules", str(rule_file), "--facts", str(fact_file)]
        assert main(argv + ["--max-rounds", "0"]) == 0
        assert "stopped (max_rounds)" in capsys.readouterr().out
        assert main(argv + ["--max-atoms", "0"]) == 0
        assert "stopped (max_atoms)" in capsys.readouterr().out

    def test_a_dead_coordinator_merge_worker_is_one_line_and_exit_one(
        self, tmp_path, capsys, monkeypatch
    ):
        # A worker that raises instead of dying is the next test.
        from repro.chase import parallel
        from repro.storage.sqlbackend import SqliteAtomStore

        real_delta = parallel._ProcessPool.delta

        def kill_then_delta(pool, *args):
            pool._processes[0].kill()
            pool._processes[0].join(timeout=10)
            return real_delta(pool, *args)

        monkeypatch.setattr(parallel._ProcessPool, "delta", kill_then_delta)
        db_path = tmp_path / "killed.db"
        argv = _transitive_closure_chase(tmp_path, db_path)
        assert main(argv + ["--parallel", "2", "--executor", "process"]) == 1
        captured = capsys.readouterr()
        (report,) = captured.err.splitlines()
        assert report.startswith("parallel chase worker 0 failed: its process exited")
        assert "Traceback" not in captured.err and "reached a fixpoint" not in captured.out
        # round 1 was flushed before the error left chase(): a resumable prefix
        with SqliteAtomStore(path=str(db_path)) as reopened:
            assert reopened.atom_count() > 6
        monkeypatch.undo()
        assert main(argv) == 0
        assert "reached a fixpoint" in capsys.readouterr().out

    @pytest.mark.parametrize("executor", ("serial", "process"))
    def test_a_crashed_worker_is_one_line_and_exit_one(
        self, tmp_path, capsys, monkeypatch, executor
    ):
        # Used to be a raw RuntimeError traceback in-process, and the parent's
        # traceback plus the worker's (25 lines) from a process worker.
        import multiprocessing

        from repro.chase import parallel
        from repro.storage.sqlbackend import SqliteAtomStore

        if executor == "process" and multiprocessing.get_start_method() != "fork":
            pytest.skip("process workers inherit the patched class only when forked")
        real_delta_round = parallel._MatchWorker._delta_round

        def crash_worker_one(worker, *args):
            if worker.worker_id == 1:
                raise RuntimeError("injected crash (worker 1)")
            return real_delta_round(worker, *args)

        monkeypatch.setattr(parallel._MatchWorker, "_delta_round", crash_worker_one)
        db_path = tmp_path / "crashed.db"
        argv = _transitive_closure_chase(tmp_path, db_path)
        assert main(argv + ["--parallel", "2", "--executor", executor]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "parallel chase worker 1 failed: RuntimeError: injected crash (worker 1)"
        ]
        assert "reached a fixpoint" not in captured.out
        with SqliteAtomStore(path=str(db_path)) as reopened:
            assert reopened.atom_count() > 6  # the seed plus round 1
        monkeypatch.undo()
        assert main(argv) == 0  # the flushed prefix resumes
        assert "reached a fixpoint" in capsys.readouterr().out

    def test_unknown_strategy(self, rule_file, capsys):
        self._assert_argparse_rejects(
            ["chase", "--rules", str(rule_file), "--strategy", "psychic"], capsys, "psychic"
        )

    def test_retired_thread_executor(self, rule_file, capsys):
        self._assert_argparse_rejects(
            ["chase", "--rules", str(rule_file), "--parallel", "2", "--executor", "thread"],
            capsys,
            "thread",
        )

    def test_retired_exchange_option(self, rule_file, capsys):
        # The coordinator merge is the one exchange topology; the option is gone.
        for exchange in ("shuffle", "coordinator"):
            with pytest.raises(SystemExit) as excinfo:
                main(["chase", "--rules", str(rule_file), "--exchange", exchange])
            assert excinfo.value.code == 2
            stderr = capsys.readouterr().err
            assert f"unrecognized arguments: --exchange {exchange}" in stderr
            assert "Traceback" not in stderr

    def test_unknown_variant(self, rule_file, capsys):
        self._assert_argparse_rejects(
            ["chase", "--rules", str(rule_file), "--variant", "turbo"], capsys, "turbo"
        )

    def test_unknown_check_algorithm(self, rule_file, capsys):
        self._assert_argparse_rejects(
            ["check", "--rules", str(rule_file), "--algorithm", "magic"], capsys, "magic"
        )

    def test_unknown_run_preset(self, capsys):
        self._assert_argparse_rejects(
            ["run", "figure1", "--preset", "galactic"], capsys, "galactic"
        )

    def test_unknown_sweep_preset(self, capsys):
        self._assert_argparse_rejects(
            ["sweep", "--preset", "galactic"], capsys, "galactic"
        )

    def test_unknown_sweep_kind(self, capsys):
        assert main(["sweep", "--kinds", "sl,bogus"]) == 2
        stderr = capsys.readouterr().err
        assert "bogus" in stderr and "sl,l" in stderr

    def test_empty_sweep_kinds(self, capsys):
        assert main(["sweep", "--kinds", ","]) == 2
        assert "subset" in capsys.readouterr().err

    def test_sweep_invalid_workers(self, capsys):
        assert main(["sweep", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_sweep_invalid_chase_workers(self, capsys):
        # The sweep runs only the paper's experiments: the chase-kind knobs
        # are gone, so argparse rejects them like any unknown option.
        for argv in (["--chase-workers", "2"], ["--chase-backend", "sqlite"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["sweep", *argv])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_chase_kind_is_unknown(self, capsys):
        assert main(["sweep", "--kinds", "chase"]) == 2
        stderr = capsys.readouterr().err
        assert "unknown sweep kind(s) chase" in stderr and "sl,l" in stderr

    def test_unknown_chase_executor(self, rule_file, capsys):
        self._assert_argparse_rejects(
            ["chase", "--rules", str(rule_file), "--executor", "quantum"], capsys, "quantum"
        )

    def test_sweep_invalid_limit(self, capsys):
        assert main(["sweep", "--limit", "0"]) == 2
        assert "--limit" in capsys.readouterr().err

    def test_sweep_checkpoint_config_mismatch(self, tmp_path, capsys):
        checkpoint = tmp_path / "sweep.jsonl"
        assert main(
            ["sweep", "--kinds", "sl", "--checkpoint", str(checkpoint), "--limit", "1"]
        ) == 3
        capsys.readouterr()
        # Same checkpoint, different sweep mode: refused with a readable message.
        assert main(
            ["sweep", "--kinds", "l", "--checkpoint", str(checkpoint), "--limit", "1"]
        ) == 2
        assert "different sweep configuration" in capsys.readouterr().err

    def _assert_checkpoint_refused(self, checkpoint, capsys, fragment):
        assert main(["sweep", "--kinds", "sl", "--checkpoint", str(checkpoint)]) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("sweep failed: ") and stderr.count("\n") == 1
        assert fragment in stderr and "Traceback" not in stderr

    def test_sweep_checkpoint_is_a_directory(self, tmp_path, capsys):
        self._assert_checkpoint_refused(tmp_path, capsys, "Is a directory")

    def test_sweep_checkpoint_in_missing_directory(self, tmp_path, capsys):
        self._assert_checkpoint_refused(
            tmp_path / "no" / "such" / "x.jsonl", capsys, "No such file or directory"
        )

    def test_sweep_checkpoint_header_not_an_object(self, tmp_path, capsys):
        checkpoint = tmp_path / "sweep.jsonl"
        checkpoint.write_text("[]\n")
        self._assert_checkpoint_refused(checkpoint, capsys, "corrupt header")

    def test_sweep_checkpoint_record_without_rows(self, tmp_path, capsys):
        from repro.experiments import SMOKE
        from repro.experiments.runner import sweep_fingerprint

        checkpoint = tmp_path / "sweep.jsonl"
        header = json.dumps({"fingerprint": sweep_fingerprint(SMOKE, ("sl",), True)})
        checkpoint.write_text(header + "\n" + json.dumps({"task_id": "sl:p0:s0"}) + "\n")
        self._assert_checkpoint_refused(checkpoint, capsys, "line 2 is not a task record")


class TestFuzzCommand:
    @pytest.fixture
    def corpus_dir(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "simple.case").write_text(
            "# name: simple\n"
            "--- rules ---\n"
            "P(x) -> Q(x)\n"
            "--- facts ---\n"
            'P(a).\nP("100%").\n'
        )
        return corpus

    def test_replay_corpus_clean_exits_zero(self, corpus_dir, capsys):
        assert main(["fuzz", "--replay", str(corpus_dir), "--pools", "quick"]) == 0
        output = capsys.readouterr().out
        assert "ok       simple" in output
        assert "CLEAN" in output

    def test_replay_single_case_file(self, corpus_dir, capsys):
        assert main(
            ["fuzz", "--replay", str(corpus_dir / "simple.case"), "--pools", "quick"]
        ) == 0
        assert "replayed simple: ok" in capsys.readouterr().out

    def test_replay_waived_case_is_skipped(self, tmp_path, capsys):
        case = tmp_path / "deferred.case"
        case.write_text(
            "# name: deferred\n"
            "# waived: documented deferral for the test\n"
            "--- rules ---\n"
            "P(x) -> Q(x)\n"
            "--- facts ---\n"
            "P(a).\n"
        )
        assert main(["fuzz", "--replay", str(case)]) == 0
        assert "waived   deferred" in capsys.readouterr().out

    def test_replay_divergent_case_exits_one(self, tmp_path, capsys):
        # A conform-marked case whose body cannot parse is a divergence.
        case = tmp_path / "broken.case"
        case.write_text(
            "# name: broken\n"
            "--- rules ---\n"
            "P(x) ->\n"
            "--- facts ---\n"
            "P(a).\n"
        )
        assert main(["fuzz", "--replay", str(case), "--pools", "quick"]) == 1
        assert "DIVERGED broken" in capsys.readouterr().out

    def test_seed_replay_plus_small_search_exits_zero(self, corpus_dir, capsys):
        code = main(
            [
                "fuzz",
                "--max-cases", "2",
                "--seed", "3",
                "--families", "sticky",
                "--corpus", str(corpus_dir),
            ]
        )
        assert code == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_unknown_corpus_path_exits_two(self, tmp_path, capsys):
        code = main(["fuzz", "--max-cases", "0", "--corpus", str(tmp_path / "nope")])
        assert code == 2
        stderr = capsys.readouterr().err
        assert "does not exist" in stderr
        assert "Traceback" not in stderr

    def test_unknown_replay_path_exits_two(self, tmp_path, capsys):
        assert main(["fuzz", "--replay", str(tmp_path / "ghost.case")]) == 2
        stderr = capsys.readouterr().err
        assert "cannot read corpus case" in stderr
        assert "Traceback" not in stderr

    def test_malformed_replay_case_exits_two(self, tmp_path, capsys):
        case = tmp_path / "malformed.case"
        case.write_text("no sections at all\n")
        assert main(["fuzz", "--replay", str(case)]) == 2
        stderr = capsys.readouterr().err
        assert "rules" in stderr
        assert "Traceback" not in stderr

    def test_unknown_family_exits_two(self, capsys):
        assert main(["fuzz", "--max-cases", "1", "--families", "bogus"]) == 2
        stderr = capsys.readouterr().err
        assert "bogus" in stderr and "heavy_skew" in stderr

    def test_negative_budgets_exit_two(self, capsys):
        assert main(["fuzz", "--time-budget", "-1"]) == 2
        assert "--time-budget" in capsys.readouterr().err
        assert main(["fuzz", "--max-cases", "-1"]) == 2
        assert "--max-cases" in capsys.readouterr().err

    def test_interrupted_run_exits_three(self, capsys, monkeypatch):
        # A KeyboardInterrupt mid-run must surface as the documented
        # pending/interrupted exit code, not a traceback.
        import repro.fuzz.harness as harness_mod

        def raising_probe(database, tgds):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness_mod, "_probe_edges", raising_probe)
        code = main(["fuzz", "--max-cases", "1", "--families", "sticky"])
        assert code == 3
        assert "INTERRUPTED" in capsys.readouterr().out

    def test_divergence_beats_interrupt_in_exit_code(self, tmp_path, capsys, monkeypatch):
        revert_quote_aware_comments(monkeypatch)
        code = main(["fuzz", "--max-cases", "0", "--families", "heavy_skew"])
        assert code == 1
        assert "DIVERGED" in capsys.readouterr().out

    def test_malformed_check_rules_exit_two_without_traceback(self, tmp_path, capsys):
        bad = tmp_path / "bad.rules"
        bad.write_text("P(x) ->\n")
        assert main(["check", "--rules", str(bad)]) == 2
        stderr = capsys.readouterr().err
        assert "non-empty body and head" in stderr
        assert "Traceback" not in stderr

    def test_malformed_chase_facts_exit_two_without_traceback(self, tmp_path, capsys):
        rules = tmp_path / "ok.rules"
        rules.write_text("P(x) -> Q(x)\n")
        facts = tmp_path / "bad.facts"
        facts.write_text('P("").\n')  # empty constant name
        assert main(["chase", "--rules", str(rules), "--facts", str(facts)]) == 2
        stderr = capsys.readouterr().err
        assert "invalid term" in stderr
        assert "Traceback" not in stderr

    def test_missing_rule_file_exits_two_without_traceback(self, tmp_path, capsys):
        ghost = tmp_path / "ghost.rules"
        assert main(["check", "--rules", str(ghost)]) == 2
        stderr = capsys.readouterr().err
        assert "cannot read" in stderr
        assert "Traceback" not in stderr

    def test_non_linear_rules_exit_two_with_one_line(self, tmp_path, capsys):
        # Used to escape as a NotLinearError traceback with exit code 1.
        rules = tmp_path / "join.rules"
        rules.write_text("R(x,y), S(y,z) -> T(x,z)\n")
        assert main(["check", "--rules", str(rules)]) == 2
        (report,) = capsys.readouterr().err.splitlines()
        assert report.startswith(str(rules)) and report.endswith("is not linear")

    def test_non_simple_linear_rules_under_sl_exit_two_with_one_line(self, tmp_path, capsys):
        rules = tmp_path / "repeat.rules"
        rules.write_text("R(x,x) -> S(x,z)\n")
        assert main(["check", "--rules", str(rules), "--algorithm", "sl"]) == 2
        (report,) = capsys.readouterr().err.splitlines()
        assert report.startswith(str(rules)) and report.endswith("is not simple-linear")
        # The same rules are in class L: auto picks the algorithm that decides them.
        assert main(["check", "--rules", str(rules)]) == 0


class TestSweepCommand:
    def test_sweep_smoke_runs_and_summarises(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--preset", "smoke", "--kinds", "sl", "--csv", str(csv_path)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "sweep[sl]" in output
        assert "0 pending" in output
        assert csv_path.exists()

    def test_sweep_resumes_from_checkpoint(self, capsys, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        assert (
            main(
                ["sweep", "--preset", "smoke", "--kinds", "sl",
                 "--checkpoint", str(checkpoint), "--limit", "3"]
            )
            == 3
        )
        first = capsys.readouterr().out
        assert "3 task(s) done" in first
        assert (
            main(["sweep", "--preset", "smoke", "--kinds", "sl", "--checkpoint", str(checkpoint)])
            == 0
        )
        second = capsys.readouterr().out
        assert "(3 resumed)" in second and "0 pending" in second

    def test_sweep_with_already_complete_checkpoint_exits_zero(self, capsys, tmp_path):
        # Regression: a checkpoint with zero remaining tasks must exit 0 and
        # emit the byte-identical aggregate table, not re-plan any work.
        checkpoint = tmp_path / "sweep.jsonl"
        argv = ["sweep", "--preset", "smoke", "--kinds", "sl", "--checkpoint", str(checkpoint)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        content_before = checkpoint.read_bytes()

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 pending" in second
        assert "(9 resumed)" in second
        assert checkpoint.read_bytes() == content_before

        def table(text):
            start = text.index("sweep[sl]")
            return text[start:].rsplit("sweep [", 1)[0]

        assert table(first) == table(second)

        # A --limit on the complete checkpoint is a no-op, still exit 0.
        assert main(argv + ["--limit", "1"]) == 0
        assert "0 pending" in capsys.readouterr().out

    def test_sweep_rejects_checkpoint_with_chase_kind(self, capsys, tmp_path):
        # A default-kinds checkpoint written while the sweep still had a
        # "chase" kind carries that kind in its fingerprint; resuming it is
        # the ordinary different-configuration error, not a silent mix.
        from repro.experiments import SMOKE
        from repro.experiments.runner import sweep_fingerprint

        checkpoint = tmp_path / "old.jsonl"
        fingerprint = sweep_fingerprint(SMOKE, ("sl", "l", "chase"), True)
        checkpoint.write_text(json.dumps({"fingerprint": fingerprint}) + "\n")
        assert main(["sweep", "--preset", "smoke", "--checkpoint", str(checkpoint)]) == 2
        assert "different sweep configuration" in capsys.readouterr().err

    def test_sweep_rejects_checkpoint_without_shapes_kind(self, capsys, tmp_path):
        # The default kinds gained "shapes": a default-kinds checkpoint from
        # before is refused the same way.
        from repro.experiments import SMOKE
        from repro.experiments.runner import sweep_fingerprint

        checkpoint = tmp_path / "old.jsonl"
        checkpoint.write_text(
            json.dumps({"fingerprint": sweep_fingerprint(SMOKE, ("sl", "l"), True)}) + "\n"
        )
        assert main(["sweep", "--preset", "smoke", "--checkpoint", str(checkpoint)]) == 2
        assert "different sweep configuration" in capsys.readouterr().err


class TestTraceCommands:
    """``--trace`` on chase/sweep/fuzz and the ``trace-report`` profiler."""

    @pytest.fixture
    def tc_rule_file(self, tmp_path):
        path = tmp_path / "tc_rules.txt"
        path.write_text("E(x,y) -> T(x,y)\nE(x,y), T(y,z) -> T(x,z)\n")
        return path

    @pytest.fixture
    def tc_fact_file(self, tmp_path):
        path = tmp_path / "tc_facts.txt"
        path.write_text("E(a,b).\nE(b,c).\n")
        return path

    def test_chase_trace_then_report(self, tc_rule_file, tc_fact_file, tmp_path, capsys):
        trace = tmp_path / "chase.jsonl"
        code = main(
            ["chase", "--rules", str(tc_rule_file), "--facts", str(tc_fact_file),
             "--trace", str(trace)]
        )
        assert code == 0
        assert f"trace: {trace}" in capsys.readouterr().out

        events = read_trace(trace)
        types = [event["type"] for event in events]
        assert types[0] == "trace_start" and types[1] == "chase_start"
        assert types[-1] == "chase_end"
        assert "round" in types and "rule_round" in types

        assert main(["trace-report", str(trace)]) == 0
        report = capsys.readouterr().out
        assert "per round:" in report
        assert "hot rules:" in report
        assert "cross-check: round events sum exactly" in report

    def test_sweep_trace_records_tasks(self, tmp_path, capsys):
        trace = tmp_path / "sweep.jsonl"
        code = main(
            ["sweep", "--preset", "smoke", "--kinds", "sl", "--limit", "2",
             "--trace", str(trace)]
        )
        assert code == 3  # tasks remain pending under --limit
        capsys.readouterr()
        types = [event["type"] for event in read_trace(trace)]
        assert types[0] == "trace_start" and types[1] == "sweep_start"
        assert types.count("sweep_task") == 2
        assert types[-1] == "sweep_end"

    def test_fuzz_replay_trace_records_cases(self, tmp_path, capsys):
        case = tmp_path / "simple.case"
        case.write_text(
            "# name: simple\n--- rules ---\nP(x) -> Q(x)\n--- facts ---\nP(a).\n"
        )
        trace = tmp_path / "fuzz.jsonl"
        code = main(
            ["fuzz", "--replay", str(case), "--pools", "quick", "--trace", str(trace)]
        )
        assert code == 0
        capsys.readouterr()
        types = [event["type"] for event in read_trace(trace)]
        assert types[0] == "trace_start" and types[1] == "fuzz_start"
        assert "fuzz_case" in types
        assert types[-1] == "fuzz_end"

    def test_unwritable_trace_path_exits_two(self, tc_rule_file, tmp_path, capsys):
        bogus = tmp_path / "missing" / "dir" / "trace.jsonl"
        code = main(["chase", "--rules", str(tc_rule_file), "--trace", str(bogus)])
        assert code == 2
        stderr = capsys.readouterr().err
        assert "cannot write trace" in stderr
        assert "Traceback" not in stderr

    def test_trace_report_on_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["trace-report", str(tmp_path / "ghost.jsonl")]) == 2
        stderr = capsys.readouterr().err
        assert "ghost.jsonl" in stderr
        assert "Traceback" not in stderr

    def test_trace_report_on_malformed_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n")
        assert main(["trace-report", str(bad)]) == 2
        stderr = capsys.readouterr().err
        assert "not valid JSON" in stderr
        assert "Traceback" not in stderr

    def test_trace_report_rejects_non_positive_top(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"type": "trace_start", "t": 0, "v": 1, "tool": "chase"}\n')
        assert main(["trace-report", str(trace), "--top", "0"]) == 2
        assert "--top" in capsys.readouterr().err


class TestListCommand:
    def test_lists_experiments_and_presets(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure1" in output and "table2" in output and "smoke" in output

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()


class TestConsoleEntryPoint:
    """The installed ``repro-experiments`` script, exercised as a subprocess.

    Everything above calls :func:`repro.cli.main` in-process; these tests pin
    the packaging contract instead — the console entry point declared in
    ``pyproject.toml`` resolves, parses argv, and propagates exit codes
    through a real process boundary.  When the package is not installed
    (plain ``PYTHONPATH=src`` runs), an equivalent ``python -c`` shim invokes
    the same ``repro.cli:main`` target the script declares.
    """

    @pytest.fixture
    def entry_point(self):
        import shutil
        import sys as _sys

        script = shutil.which("repro-experiments")
        if script is not None:
            return [script]
        return [
            _sys.executable,
            "-c",
            "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
        ]

    @pytest.fixture
    def subprocess_env(self):
        import os
        from pathlib import Path

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing else os.pathsep.join([src, existing])
        return env

    def _run(self, entry_point, env, *argv):
        import subprocess

        return subprocess.run(
            entry_point + list(argv),
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_chase_help_exits_zero(self, entry_point, subprocess_env):
        completed = self._run(entry_point, subprocess_env, "chase", "--help")
        assert completed.returncode == 0, completed.stderr
        assert "--rules" in completed.stdout
        assert "--strategy" in completed.stdout

    def test_chase_run_exits_zero(self, entry_point, subprocess_env, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text("R(x,y) -> S(y,z)\nS(x,y) -> T(x)\n")
        facts = tmp_path / "facts.txt"
        facts.write_text("R(a,b).\n")
        completed = self._run(
            entry_point, subprocess_env,
            "chase", "--rules", str(rules), "--facts", str(facts),
        )
        assert completed.returncode == 0, completed.stderr
        assert "reached a fixpoint" in completed.stdout
        assert "instance_size" in completed.stdout

    def test_usage_error_exits_two(self, entry_point, subprocess_env, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text("R(x,y) -> S(y,z)\n")
        completed = self._run(
            entry_point, subprocess_env,
            "chase", "--rules", str(rules), "--parallel", "0",
        )
        assert completed.returncode == 2
        assert "--parallel must be >= 1" in completed.stderr

    def test_sigint_mid_chase_is_one_line_exit_three_and_resumable(
        self, entry_point, subprocess_env, tmp_path
    ):
        # Used to print a KeyboardInterrupt traceback, although chase() had
        # already flushed the store on the way out.
        import signal
        import sqlite3
        import subprocess
        import time

        from repro.chase import chase
        from repro.core.parser import parse_database, parse_rules
        from repro.core.serializer import serialize_database
        from repro.storage.sqlbackend import SqliteAtomStore

        # One cheap round (and one flush) per rule: long enough to interrupt.
        rules_text = "".join(f"A{i}(x,y) -> A{i + 1}(y,z)\n" for i in range(1500))
        facts_text = "".join(f"A0(a{i},b{i}).\n" for i in range(5))
        rules = tmp_path / "chain.txt"
        rules.write_text(rules_text)
        facts = tmp_path / "facts.txt"
        facts.write_text(facts_text)
        db_path = tmp_path / "interrupted.db"
        argv = [
            "chase", "--rules", str(rules), "--facts", str(facts),
            "--backend", f"sqlite:{db_path}", "--no-materialize",
        ]

        def relations_on_disk():
            try:
                connection = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True)
                try:
                    return connection.execute(
                        "SELECT count(*) FROM sqlite_master WHERE name LIKE 'rel_%'"
                    ).fetchone()[0]
                finally:
                    connection.close()
            except sqlite3.Error:
                return 0

        process = subprocess.Popen(
            entry_point + argv, env=subprocess_env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while relations_on_disk() < 50 and process.poll() is None:
                assert time.monotonic() < deadline, "the chase never reached round 50"
                time.sleep(0.01)
            process.send_signal(signal.SIGINT)
            _stdout, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 3, stderr
        (report,) = stderr.splitlines()
        assert report == f"interrupted; {db_path} holds a resumable prefix, rerun to continue"
        with SqliteAtomStore(path=str(db_path)) as reopened:
            assert 5 < reopened.atom_count() < 7505

        resumed = self._run(entry_point, subprocess_env, *argv)
        assert resumed.returncode == 0, resumed.stderr
        assert "reached a fixpoint" in resumed.stdout
        expected = chase(parse_database(facts_text), parse_rules(rules_text)).instance
        with SqliteAtomStore(path=str(db_path)) as reopened:
            persisted = serialize_database(sorted(reopened.iter_atoms()))
        assert persisted == serialize_database(sorted(expected))

    @pytest.mark.parametrize("strategy", ["indexed", "sql-pushdown"])
    def test_a_persisted_file_does_not_depend_on_the_hash_seed(
        self, entry_point, subprocess_env, tmp_path, strategy
    ):
        # Seed facts used to reach the store in set-iteration order, so the
        # input relation's seq column (and the file's bytes) changed run to run.
        import sqlite3

        rules = tmp_path / "chain.txt"
        rules.write_text("R(x,y) -> S(y,z)\nS(x,y) -> T(y,z)\nT(x,y) -> U(x)\n")
        facts = tmp_path / "facts.txt"
        facts.write_text("".join(f"R(a{i},b{i}).\n" for i in range(60)))
        dumps = []
        for hash_seed in ("1", "2"):
            db_path = tmp_path / f"seed-{hash_seed}.db"
            completed = self._run(
                entry_point, dict(subprocess_env, PYTHONHASHSEED=hash_seed),
                "chase", "--rules", str(rules), "--facts", str(facts), "--strategy", strategy,
                "--backend", f"sqlite:{db_path}", "--no-materialize",
            )
            assert completed.returncode == 0, completed.stderr
            connection = sqlite3.connect(db_path)
            relations = [name for (name,) in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' AND name LIKE 'rel_%' "
                "ORDER BY name"
            )]
            dumps.append([
                (name, connection.execute(f'SELECT * FROM "{name}" ORDER BY seq').fetchall())
                for name in relations
            ])
            connection.close()
        assert len(dumps[0]) == 4 and all(rows for _, rows in dumps[0])
        assert dumps[0] == dumps[1]
        seeded = [row[:2] for row in dumps[0][0][1]]  # rel_^r sorts first
        assert seeded == sorted(seeded)

    SCHEMA_ERRORS = {
        # file contents -> the line the one-line report must name
        "arity conflict in the rules": ("R(x,y) -> S(y)\nS(x) -> R(x)\n", "R(a,b).\n", 2),
        "constant in a rule": ("% header\nR(x) -> S('a')\n", "R(a).\n", 2),
        "arity conflict in the facts": ("R(x,y) -> S(y)\n", "R(a,b).\n\nR(a).\n", 3),
    }

    @pytest.mark.parametrize("command", ["check", "chase"])
    @pytest.mark.parametrize("case", sorted(SCHEMA_ERRORS))
    def test_schema_error_in_a_file_exits_two_with_one_line(
        self, entry_point, subprocess_env, tmp_path, command, case
    ):
        rules_text, facts_text, line_number = self.SCHEMA_ERRORS[case]
        rules = tmp_path / "rules.txt"
        rules.write_text(rules_text)
        facts = tmp_path / "facts.txt"
        facts.write_text(facts_text)
        completed = self._run(
            entry_point, subprocess_env,
            command, "--rules", str(rules), "--facts", str(facts),
        )
        assert completed.returncode == 2, completed.stderr
        assert "Traceback" not in completed.stderr
        (report,) = completed.stderr.splitlines()
        assert f"(line {line_number})" in report

    def test_byte_order_mark_does_not_change_the_verdict(
        self, entry_point, subprocess_env, tmp_path
    ):
        # With the BOM read as part of the first predicate name, ``\ufeffR`` and ``R``
        # were two relations and the cycle through R disappeared: FINITE.
        facts = tmp_path / "facts.txt"
        facts.write_text("R(a,b).\n")
        reports = {}
        for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
            rules = tmp_path / f"{name}.rules"
            rules.write_text("R(x,y) -> S(y,z)\nS(x,y) -> R(x,z)\n", encoding=encoding)
            completed = self._run(
                entry_point, subprocess_env,
                "check", "--rules", str(rules), "--facts", str(facts),
            )
            assert completed.returncode == 0, completed.stderr
            reports[name] = [
                line for line in completed.stdout.splitlines() if not line.endswith(" ms")
            ]
        assert any("INFINITE" in line for line in reports["plain"])
        assert any("n_nodes: 4" in line for line in reports["plain"])
        assert reports["bom"] == reports["plain"]
