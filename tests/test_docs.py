"""The documentation suite stays truthful.

Three guards:

* **help snapshots** — ``docs/cli.md`` embeds the exact ``--help`` output
  of the top-level parser and every subcommand between
  ``<!-- help:NAME -->`` markers; this test regenerates each from
  :func:`repro.cli._build_parser` (at the same 80-column width) and fails
  on any drift, so a flag change cannot ship without its documentation;
* **link check** — every relative markdown link in README.md,
  ARCHITECTURE.md, ROADMAP.md, and docs/ must point at a file that exists;
* **retired estate** — ``benchmarks/``, its artifacts and environment knobs,
  and the ``sql`` strategy are gone from the tree and from the documentation.
"""

import importlib
import os
import re
from pathlib import Path

import pytest

from repro.chase.matching import STRATEGIES
from repro.cli import _build_parser

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
        offenders = []
        for root in map(REPO.joinpath, self.SCANNED):
            files = [root] if root.is_file() else sorted(root.rglob("*"))
            for path in files:
                if not path.is_file() or "__pycache__" in path.parts:
                    continue
                text = path.read_text(encoding="utf-8", errors="ignore")
                offenders += [
                    f"{path.relative_to(REPO)}: {banned}" for banned in self.BANNED if banned in text
                ]
        assert not offenders, offenders
        assert STRATEGIES == ("indexed", "naive", "sql-pushdown")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.storage.sqlbackend.plans")
