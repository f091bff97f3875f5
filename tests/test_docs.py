"""The documentation suite stays truthful.

Four guards:

* **help snapshots** — ``docs/cli.md`` embeds the exact ``--help`` output
  of the top-level parser and every subcommand between
  ``<!-- help:NAME -->`` markers; this test regenerates each from
  :func:`repro.cli._build_parser` (at the same 80-column width) and fails
  on any drift, so a flag change cannot ship without its documentation;
* **link check** — every relative markdown link in README.md,
  ARCHITECTURE.md, ROADMAP.md, and docs/ must point at a file that exists;
* **cited documents** — every ``*.md`` file a source file under ``src/``
  names must exist in the repository;
* **retired estate** — ``benchmarks/``, its artifacts and environment knobs,
  and the ``sql`` strategy are gone from the tree and from the documentation;
  so are the ``thread`` executor, the SQLite connection lock and its lint
  rule, the ``relational`` chase backend, the ``naive`` strategy with
  the ``Trigger`` / ``Substitution`` objects only it built, the
  recursive-query tier and parallel worker of ``sql-pushdown``, and the
  SQLite replica kinds with the store-level partition scan and the worker
  metrics merge, the hand-written figure runners the sweep replaced, and
  the atom half of the store protocol with the SQLite store's loaders, and
  the parallel chase's shuffle exchange with its routing and events.
"""

import importlib
import inspect
import os
import re
from pathlib import Path

import pytest

import repro.chase
import repro.core
from repro.chase.engine import BACKENDS
from repro.chase.matching import STRATEGIES
from repro.chase.parallel import EXECUTORS
from repro.cli import _build_parser
from repro.core.instances import Instance
from repro.storage.atom_store import AtomStore
from repro.storage.database import RelationalDatabase
from repro.storage.sqlbackend import SqliteAtomStore
from tools.reprolint.checkers import ALL_CHECKERS

REPO = Path(__file__).resolve().parents[1]
CLI_DOC = REPO / "docs" / "cli.md"

CHECKED_DOCUMENTS = (
    REPO / "README.md",
    REPO / "ARCHITECTURE.md",
    REPO / "ROADMAP.md",
    REPO / "docs" / "cli.md",
    REPO / "docs" / "invariants.md",
    REPO / "docs" / "fuzzing.md",
    REPO / "docs" / "observability.md",
)

HELP_BLOCK = re.compile(
    r"<!-- help:(?P<name>[\w.-]+) -->\n```text\n(?P<body>.*?)\n```\n<!-- /help:(?P=name) -->",
    re.DOTALL,
)

#: argparse renamed the section in 3.10; normalise so the snapshots match
#: on every CI interpreter.
_LEGACY_OPTIONS_HEADER = ("optional arguments:", "options:")


def _normalize(text: str) -> str:
    return text.rstrip().replace(*_LEGACY_OPTIONS_HEADER)


def _expected_help_blocks():
    os.environ["COLUMNS"] = "80"  # argparse wraps at the terminal width
    parser = _build_parser()
    blocks = {"repro-experiments": _normalize(parser.format_help())}
    (subparsers,) = [
        action
        for action in parser._actions
        if action.__class__.__name__ == "_SubParsersAction"
    ]
    for name, subparser in subparsers.choices.items():
        blocks[name] = _normalize(subparser.format_help())
    return blocks


class TestHelpSnapshots:
    def test_every_subcommand_is_documented(self):
        documented = {match.group("name") for match in HELP_BLOCK.finditer(CLI_DOC.read_text())}
        assert documented == set(_expected_help_blocks()), (
            "docs/cli.md help blocks out of sync with the parser's subcommands"
        )

    def test_help_output_matches_the_documented_snapshot(self):
        documented = {
            match.group("name"): _normalize(match.group("body"))
            for match in HELP_BLOCK.finditer(CLI_DOC.read_text())
        }
        for name, expected in _expected_help_blocks().items():
            assert documented.get(name) == expected, (
                f"docs/cli.md snapshot for {name!r} drifted from --help; "
                "regenerate the block from the real parser output"
            )


MARKDOWN_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


class TestMarkdownLinks:
    @pytest.mark.parametrize(
        "document", CHECKED_DOCUMENTS, ids=lambda path: path.name
    )
    def test_relative_links_resolve(self, document):
        assert document.exists(), f"{document} is missing"
        broken = []
        for target in MARKDOWN_LINK.findall(document.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not (document.parent / path).exists():
                broken.append(target)
        assert not broken, f"{document.name} has broken relative links: {broken}"


CITED_DOCUMENT = re.compile(r"[\w./-]+\.md\b")


class TestCitedDocuments:
    def test_documents_cited_in_the_source_exist(self):
        missing = [
            f"{path}: {name}"
            for path, text in _text_files("src")
            for name in CITED_DOCUMENT.findall(text)
            if not (REPO / name).exists()
        ]
        assert not missing, missing


def _text_files(*roots):
    """``(path relative to the repo, text)`` of every file under *roots*."""
    for root in map(REPO.joinpath, roots):
        for path in [root] if root.is_file() else sorted(root.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                yield path.relative_to(REPO), path.read_text(encoding="utf-8", errors="ignore")


class TestRetiredEstate:
    """``python -m bench`` is the one benchmark and ``sql-pushdown`` the one
    SQL strategy; what they replaced must not drift back in."""

    SCANNED = ("README.md", "ARCHITECTURE.md", "docs", "src", "tools", ".github", ".claude",
               "pyproject.toml")
    BANNED = ("benchmarks/bench_", "REPRO_BENCH_", "pytest-benchmark")

    def test_old_benchmarks_and_the_sql_strategy_stay_gone(self):
        assert not (REPO / "benchmarks").exists()
        assert {path.name for path in REPO.glob("BENCH_*")} <= {
            "BENCHMARK.json", "BENCH_HISTORY.jsonl",
        }
        offenders = [
            f"{path}: {banned}"
            for path, text in _text_files(*self.SCANNED)
            for banned in self.BANNED
            if banned in text
        ]
        assert not offenders, offenders
        assert STRATEGIES == ("indexed", "sql-pushdown")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.storage.sqlbackend.plans")

    def test_one_thread_per_store(self):
        assert "thread" not in EXECUTORS
        assert BACKENDS == ("instance", "sqlite")
        for path in sorted((REPO / "src" / "repro" / "storage").rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            for banned in ("_connection_lock", "check_same_thread=False", "import threading"):
                assert banned not in text, f"{path.relative_to(REPO)}: {banned}"
        assert "lock-discipline" not in {checker.name for checker in ALL_CHECKERS}
        assert not hasattr(RelationalDatabase, "add_atom")
        assert not hasattr(RelationalDatabase, "atoms_matching")

    def test_reference_left_the_product(self):
        assert STRATEGIES == ("indexed", "sql-pushdown")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.substitutions")
        for name in ("Trigger", "triggers_on", "NaiveTriggerSource", "TriggerSource"):
            assert not hasattr(repro.chase, name), name
        for name in ("Substitution", "homomorphisms"):
            assert not hasattr(repro.core, name), name
        offenders = [
            str(path)
            for path, text in _text_files("README.md", "ARCHITECTURE.md", "docs", "src", ".claude")
            if "--strategy naive" in text
        ]
        assert not offenders, offenders

    def test_pushdown_is_one_serial_round_step(self):
        import repro.storage.sqlbackend
        from repro.chase import parallel

        assert not hasattr(repro.storage.sqlbackend, "CompiledPlanQuery")
        assert not hasattr(parallel, "PushdownMatchWorker")
        assert "strategy" not in inspect.signature(parallel.parallel_chase).parameters
        offenders = [
            f"{path}: {banned}"
            for path, text in _text_files("README.md", "ARCHITECTURE.md", "docs", "src", ".claude")
            for banned in ("recursive cte", "recursive-cte")
            if banned in text.lower()
        ]
        assert not offenders, offenders

    def test_one_replica_kind(self):
        offenders = [
            f"{path}: {banned}"
            for path, text in _text_files("src", "tools")
            for banned in (
                "SqliteOverlayStore", "atoms_partition", "repro_partition",
                "atom_partition_of", "merge_snapshot", "store_spec",
            )
            if banned in text
        ]
        assert not offenders, offenders
        assert {name for name in vars(AtomStore) if not name.startswith("_")} == {
            "add_rows", "has_row", "rows_matching", "predicate_cardinality", "predicates",
            "atom_count", "iter_atoms",
        }

    def test_the_store_protocol_is_rows(self):
        # Backends speak rows; atoms are built by Instance (the value type)
        # and InstanceView (the adapter over any store), nowhere else.
        deleted = (
            "add_atom", "add_atoms", "has_atom", "atoms_with_predicate", "atoms_matching",
            "load_database", "from_database", "to_instance",
        )
        assert not [name for name in deleted if hasattr(SqliteAtomStore, name)]
        assert not [
            name for name in ("add_atom", "has_atom", "atoms_matching") if hasattr(Instance, name)
        ]

    def test_one_l_pipeline(self):
        # is_chase_finite_l is the one IsChaseFinite[L] pipeline: the figures,
        # tables, sweep and incremental checker read its report.  The
        # static-vs-dynamic ablation measures Algorithm 2 itself and keeps
        # its direct call.
        experiments = REPO / "src" / "repro" / "experiments"
        callers = [
            path for path in sorted(experiments.rglob("*.py")) if path.name != "ablations.py"
        ] + [REPO / "src" / "repro" / "termination" / "incremental.py"]
        call = re.compile(r"\b(?:(?:resume_)?dynamic_simplification|find_special_sccs)\(")
        offenders = [
            f"{path.relative_to(REPO)}: {match.group()}"
            for path in callers
            for match in call.finditer(path.read_text(encoding="utf-8"))
        ]
        assert not offenders, offenders
        # The sweep's chase kind and its knobs are gone.
        offenders = [
            f"{path}: {banned}"
            for path, text in _text_files(
                "src", "tools", "docs", ".github", "README.md", "ARCHITECTURE.md"
            )
            for banned in (
                "chase_workers", "chase_backend", "--chase-workers", "build_chase_database",
                "CHASE_TASK_LIMITS",
            )
            if banned in text
        ]
        assert not offenders, offenders

    def test_one_experiment_harness(self):
        # Every figure is a projection of sweep rows: figures.py reaches the
        # pipelines only through the runner, and the hand-written figure
        # runners and their helpers stay gone.
        import repro.experiments
        import repro.experiments.figures

        figures = REPO / "src" / "repro" / "experiments" / "figures.py"
        imported = re.findall(
            r"^\s*(?:from|import)\s+(\S+)", figures.read_text(encoding="utf-8"), re.MULTILINE
        )
        assert not [module for module in imported if re.search(r"termination|storage", module)]
        public = tuple(f"figure{index}" for index in range(1, 8)) + (
            "figure_db_independent_vs_size", "figure_edges",
        )
        for module in (repro.experiments, repro.experiments.figures):
            assert not [name for name in public if hasattr(module, name)], module.__name__
        retired = re.compile(
            r"\b(?:def )?(?:%s)\(|:func:`(?:%s)`|_measure_db_independent|_linear_grid\b"
            r"|_figure_find_shapes|_figure_db_independent_for_profile"
            % ("|".join(public), "|".join(public))
        )
        offenders = [
            f"{path}: {match.group()}"
            for path, text in _text_files("src", "docs", "README.md", "ARCHITECTURE.md")
            for match in retired.finditer(text)
        ]
        assert not offenders, offenders

    def test_one_exchange_topology(self):
        # The coordinator merge is the parallel chase's one exchange; the
        # peer-to-peer shuffle, its routing and its events stay gone.  Its
        # name stays accepted (and runs the coordinator merge) only while
        # BENCHMARK.json still declares the chase.exchange.* layers.
        from repro.chase.engine import chase
        from repro.chase.exchange import EXCHANGES
        from repro.cli import main
        from repro.obs.events import EVENT_TYPES

        assert EXCHANGES == ("coordinator", "shuffle")
        assert "exchange" not in inspect.signature(chase).parameters
        assert not {"exchange", "repartition"} & set(EVENT_TYPES)
        with pytest.raises(SystemExit) as exit_info:
            main(["chase", "--rules", "rules.txt", "--exchange", "shuffle"])
        assert exit_info.value.code == 2
        offenders = [
            f"{path}: {banned}"
            for path, text in _text_files(
                "src", "tools", "docs", "README.md", "ARCHITECTURE.md", ".github"
            )
            for banned in (
                "ShuffleWorker", "SkewDetector", "RoutingTable", "_PipeTransport",
                "stable_key_hash", "REPRO_EXCHANGE_CRASH",
            )
            if banned in text
        ]
        assert not offenders, offenders
