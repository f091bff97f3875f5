"""Fixture-based self-tests for the reprolint framework and its checkers.

Every rule gets mutation-style coverage: a snippet re-introducing the class
of bug the rule exists for (an unsorted set iteration on a result path, a
lambda through a pool submit, an unescaped identifier interpolation) must
turn the lint red, and the
disciplined twin of each snippet must stay green.  The framework's waiver
contract — justification mandatory, stale waivers flagged — is pinned here
too, because the whole CI gate leans on it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tools.reprolint import run_lint
from tools.reprolint.checkers import ALL_CHECKERS

REPO_ROOT = Path(__file__).resolve().parents[2]


def lint_snippet(tmp_path: Path, rel: str, source: str):
    """Write *source* at *rel* under a scratch tree and lint the tree.

    The relative path is what routes the module to checkers (each checker
    scopes itself by path fragments), so fixtures place snippets where the
    real code they imitate lives.
    """
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint([tmp_path], ALL_CHECKERS)


def rules_of(report):
    return sorted({finding.rule for finding in report.findings})


# --------------------------------------------------------------------------- #
# Framework: waivers


class TestWaivers:
    SNIPPET = """
    import time

    def stamp():
        return time.time(){waiver}
    """

    def test_justified_waiver_suppresses_the_finding(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "chase/clock.py",
            self.SNIPPET.format(
                waiver="  # reprolint: disable=determinism -- test fixture"
            ),
        )
        assert report.ok
        assert len(report.waived) == 1
        assert report.waived[0].justification == "test fixture"

    def test_waiver_without_justification_is_itself_a_finding(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "chase/clock.py",
            self.SNIPPET.format(waiver="  # reprolint: disable=determinism"),
        )
        assert not report.ok
        assert "waiver" in rules_of(report)
        # The original finding stays active too: nothing is suppressed
        # until the author writes down why.
        assert "determinism" in rules_of(report)

    def test_unused_waiver_is_flagged_as_stale(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "chase/clean.py",
            """
            def fine():  # reprolint: disable=determinism -- nothing here needs this
                return 1
            """,
        )
        assert rules_of(report) == ["waiver-unused"]

    def test_standalone_waiver_comment_covers_the_next_line(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "chase/clock.py",
            """
            import time

            def stamp():
                # reprolint: disable=determinism -- fixture: next-line coverage
                return time.time()
            """,
        )
        assert report.ok
        assert len(report.waived) == 1


# --------------------------------------------------------------------------- #
# determinism


class TestDeterminism:
    def test_unsorted_set_iteration_on_a_result_path_is_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "chase/engine.py",
            """
            def insert_round(store, predicate, new_rows):
                new_rows = set(new_rows)
                for row in new_rows:
                    store.add_rows(predicate, [row])
            """,
        )
        assert rules_of(report) == ["determinism"]

    def test_sorted_insertion_passes(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "chase/engine.py",
            """
            def insert_round(store, predicate, new_rows):
                new_rows = set(new_rows)
                for row in sorted(new_rows):
                    store.add_rows(predicate, [row])
            """,
        )
        assert report.ok

    def test_annotated_set_parameter_is_tracked(self, tmp_path):
        from typing import Set  # noqa: F401  (mirrors the annotated source)

        report = lint_snippet(
            tmp_path,
            "chase/engine.py",
            """
            from typing import Set

            def emit(atoms: Set[int]):
                return list(atoms)
            """,
        )
        assert rules_of(report) == ["determinism"]

    def test_order_insensitive_consumers_pass(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "chase/engine.py",
            """
            def stats(atoms):
                atoms = set(atoms)
                count = len(atoms)
                present = "x" in atoms
                biggest = max(atoms)
                names = {a.name for a in atoms}
                return count, present, biggest, names
            """,
        )
        assert report.ok

    def test_set_join_serialisation_is_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "storage/serialize.py",
            """
            def render(names):
                names = {n.lower() for n in names}
                return ", ".join(names)
            """,
        )
        assert rules_of(report) == ["determinism"]

    def test_clock_randomness_and_addresses_are_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "core/ids.py",
            """
            import random
            import time

            def fresh(obj):
                return (time.time(), random.random(), id(obj))
            """,
        )
        assert rules_of(report) == ["determinism"]
        assert len(report.findings) == 3

    def test_non_result_modules_get_the_clock_only_tier(self, tmp_path):
        # Outside core/chase/storage/fuzz/obs, seeded randomness, id(),
        # environment reads, and set iteration are the harness's own
        # business — only the wall clock is banned there.
        report = lint_snippet(
            tmp_path,
            "experiments/bench.py",
            """
            import os
            import random

            def shuffle(rows, seed):
                rng = random.Random(seed)
                rng.shuffle(rows)
                tags = set(os.environ["SWEEP_TAGS"].split(","))
                return [(id(row), row) for row in rows], list(tags)
            """,
        )
        assert report.ok

    def test_clock_reads_outside_result_modules_are_flagged(self, tmp_path):
        # The wall clock is banned tree-wide: every duration must flow
        # through the one injectable seam in repro.obs.clock.
        report = lint_snippet(
            tmp_path,
            "experiments/bench.py",
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert rules_of(report) == ["determinism"]
        assert "repro.obs.clock" in report.findings[0].message

    def test_obs_modules_are_in_full_scope(self, tmp_path):
        # The observability layer feeds ordered trace events, so it gets
        # every determinism check, not just the clock tier.
        report = lint_snippet(
            tmp_path,
            "obs/report.py",
            """
            def hot_rules(events):
                rules = {event["rule"] for event in events}
                return list(rules)
            """,
        )
        assert rules_of(report) == ["determinism"]


# --------------------------------------------------------------------------- #
# process-boundary


class TestProcessBoundary:
    def test_lambda_through_pool_submit_turns_the_lint_red(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "chase/parallel.py",
            """
            def dispatch(pool, store):
                return pool.submit(lambda: store.atom_count())
            """,
        )
        assert rules_of(report) == ["process-boundary"]

    def test_live_store_in_a_pipe_send_is_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "chase/parallel.py",
            """
            def seed(conn, store):
                conn.send(("seed", store))
            """,
        )
        assert rules_of(report) == ["process-boundary"]

    def test_send_wrapper_call_sites_are_scanned_too(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "chase/parallel.py",
            """
            class Pool:
                def seed(self, worker_id, store):
                    self._send(worker_id, ("seed", store))
            """,
        )
        assert rules_of(report) == ["process-boundary"]

    def test_generator_payload_is_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "chase/parallel.py",
            """
            def seed(conn, atoms):
                conn.send((a for a in atoms))
            """,
        )
        assert rules_of(report) == ["process-boundary"]

    def test_plain_tuple_messages_pass(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "chase/parallel.py",
            """
            def seed(conn, fresh, runs, atoms, items):
                conn.send(("seed", fresh, runs))
                conn.send(("delta", atoms, items))
                conn.send(("stop",))
            """,
        )
        assert report.ok

    def test_pipe_end_may_cross_via_process_args_but_not_send(self, tmp_path):
        clean = lint_snippet(
            tmp_path,
            "chase/parallel.py",
            """
            def spawn(worker_main, child_conn, worker_id):
                return Process(target=worker_main, args=(child_conn, worker_id))
            """,
        )
        assert clean.ok
        dirty = lint_snippet(
            tmp_path,
            "chase/parallel2/parallel.py",
            """
            def leak(conn, child_conn):
                conn.send(("handle", child_conn))
            """,
        )
        assert rules_of(dirty) == ["process-boundary"]

    def test_exchange_module_is_in_scope(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "chase/exchange.py",
            """
            def ship(conn, store):
                conn.send(("frame", store))
            """,
        )
        assert rules_of(report) == ["process-boundary"]

    def test_routing_table_in_an_exchange_payload_is_flagged(self, tmp_path):
        for payload in ("routing_table", "self.routing", "router"):
            report = lint_snippet(
                tmp_path,
                "chase/exchange.py",
                f"""
                class Sender:
                    def ship(self, conn, routing_table, router):
                        conn.send(("round", 1, {payload}))
                """,
            )
            assert rules_of(report) == ["process-boundary"], payload

    def test_heavy_routes_tuples_pass_the_routing_rule(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "chase/exchange.py",
            """
            def barrier(conn, heavy_routes, frame):
                conn.send(("round", 3, heavy_routes))
                conn.send(frame)
            """,
        )
        assert report.ok


# --------------------------------------------------------------------------- #
# sql-identifier


class TestSqlIdentifier:
    def test_raw_identifier_interpolation_turns_the_lint_red(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "storage/sqlbackend/store.py",
            """
            def drop(predicate):
                return f"DROP TABLE {predicate.name}"
            """,
        )
        assert rules_of(report) == ["sql-identifier"]

    def test_percent_and_format_building_are_caught_too(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "storage/sqlbackend/store.py",
            """
            def build(predicate):
                a = "SELECT * FROM %s" % predicate.name
                b = "DELETE FROM {}".format(predicate.name)
                return a, b
            """,
        )
        assert rules_of(report) == ["sql-identifier"]
        assert len(report.findings) == 2

    def test_taint_flows_through_local_assignment(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "storage/sqlbackend/store.py",
            """
            def drop(predicate):
                table = table_name(predicate.name)
                return f"DROP TABLE {table}"
            """,
        )
        assert rules_of(report) == ["sql-identifier"]

    def test_escaped_identifiers_pass(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "storage/sqlbackend/store.py",
            """
            def select(predicate):
                table = _quote(table_name(predicate.name))
                return f"SELECT * FROM {table} WHERE c0 = :v"
            """,
        )
        assert report.ok

    def test_non_sql_messages_with_raw_names_pass(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "storage/sqlbackend/store.py",
            """
            def complain(predicate, existing):
                raise ValueError(
                    f"relation {predicate.name!r} already exists with arity "
                    f"{existing.arity}"
                )
            """,
        )
        assert report.ok

    def test_precomputed_lookup_by_raw_name_passes(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "storage/sqlbackend/pushdown.py",
            """
            def branch(self, predicate):
                return f"SELECT {self._tag[predicate.name]} FROM w"
            """,
        )
        assert report.ok


# --------------------------------------------------------------------------- #
# The real tree and the CLI surface


class TestRealTree:
    def test_src_repro_lints_clean(self):
        report = run_lint([REPO_ROOT / "src" / "repro"], ALL_CHECKERS)
        assert report.ok, [
            f"{finding.location()} [{finding.rule}] {finding.message}"
            for finding in report.findings
        ]

    def test_every_waiver_in_the_tree_is_justified_and_used(self):
        report = run_lint([REPO_ROOT / "src" / "repro"], ALL_CHECKERS)
        for waiver in report.waivers:
            assert waiver.justification, f"unjustified waiver at {waiver.path}:{waiver.line}"
            assert waiver.used, f"stale waiver at {waiver.path}:{waiver.line}"


class TestCli:
    def run_cli(self, *argv, cwd=REPO_ROOT):
        return subprocess.run(
            [sys.executable, "-m", "tools.reprolint", *argv],
            cwd=cwd,
            capture_output=True,
            text=True,
        )

    def test_clean_tree_exits_zero(self):
        result = self.run_cli("src/repro")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_findings_exit_one_and_json_is_machine_readable(self, tmp_path):
        bad = tmp_path / "chase" / "engine.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\ndef t():\n    return time.time()\n")
        result = self.run_cli(str(tmp_path), "--format", "json")
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "determinism"

    def test_unknown_rule_is_a_usage_error(self):
        result = self.run_cli("src/repro", "--rules", "no-such-rule")
        assert result.returncode == 2

    def test_syntax_error_is_a_usage_error(self, tmp_path):
        broken = tmp_path / "chase" / "broken.py"
        broken.parent.mkdir(parents=True)
        broken.write_text("def (:\n")
        result = self.run_cli(str(tmp_path))
        assert result.returncode == 2
        assert "cannot parse" in result.stderr

    def test_list_waivers_reports_the_tree_inventory(self):
        result = self.run_cli("src/repro", "--list-waivers")
        assert result.returncode == 0
        assert "waiver(s)" in result.stdout
        # The indexed delta enumeration walks the driver's sorted runs and
        # the naive reference sorts its delta, so neither needs a waiver;
        # nor does the SQLite store, bound to one thread.
        assert "3 waiver(s)" in result.stdout
        assert "chase/matching.py" not in result.stdout
        assert "fuzz/reference.py" not in result.stdout
        assert "storage/sqlbackend/store.py" not in result.stdout
