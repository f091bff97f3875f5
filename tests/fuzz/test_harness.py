"""The fuzzing loop and corpus replay, including reverted-fix detection."""

import pytest

from repro.core.atoms import Atom
from repro.core.instances import Database
from repro.core.predicates import Predicate
from repro.core.terms import Constant, Variable
from repro.core.tgds import TGD, TGDSet
from repro.exceptions import ParseError
from repro.fuzz import (
    FuzzCase,
    case_from_program,
    fuzz,
    replay_case,
    replay_corpus,
    save_case,
)
from tests.helpers import revert_quote_aware_comments

P, Q = Predicate("P", 1), Predicate("Q", 1)
x = Variable("x")


def simple_case(name="simple", **overrides):
    fields = dict(
        name=name,
        rules_text="P(x) -> Q(x)\n",
        facts_text='P(a).\nP("100%").\n',
    )
    fields.update(overrides)
    return FuzzCase(**fields)


class TestReplayCase:
    def test_conform_case_replays_green(self):
        assert replay_case(simple_case(), pools="quick").status == "ok"

    def test_waived_case_is_skipped(self):
        outcome = replay_case(simple_case(waived="deferred: demo"), pools="quick")
        assert outcome.status == "waived"
        assert outcome.divergences == ()

    def test_parse_error_expectation_green_when_it_fails_to_parse(self):
        case = simple_case(facts_text='P("").\n', expect="parse-error")
        assert replay_case(case, pools="quick").status == "ok"

    def test_parse_error_expectation_diverges_when_it_parses(self):
        case = simple_case(expect="parse-error")
        outcome = replay_case(case, pools="quick")
        assert outcome.status == "divergent"
        assert "expected ParseError" in outcome.divergences[0].detail

    def test_conform_case_that_fails_to_parse_diverges(self):
        case = simple_case(rules_text="P(x) ->\n")
        outcome = replay_case(case, pools="quick")
        assert outcome.status == "divergent"
        assert "failed to parse" in outcome.divergences[0].detail


class TestReplayCorpus:
    def test_replay_reports_per_case(self, tmp_path):
        save_case(simple_case("good"), tmp_path)
        save_case(simple_case("skipped", waived="deferred: demo"), tmp_path)
        lines = []
        report = replay_corpus(tmp_path, pools="quick", log=lines.append)
        assert report.ok
        assert report.cases_run == 1
        assert [case.name for case in report.waived] == ["skipped"]
        assert any(line.startswith("ok") for line in lines)
        assert any(line.startswith("waived") for line in lines)

    def test_replay_missing_directory_raises(self, tmp_path):
        with pytest.raises(ParseError):
            replay_corpus(tmp_path / "nope")


class TestFuzzLoop:
    def test_fixed_seed_runs_are_identical(self):
        signature = lambda r: (
            r.cases_run,
            r.seeds_loaded,
            [c.case.name for c in r.divergent],
            r.coverage_edges,
        )
        first = fuzz(max_cases=4, seed=11, families=["self_join"])
        second = fuzz(max_cases=4, seed=11, families=["self_join"])
        assert signature(first) == signature(second)

    def test_clean_tree_finds_nothing(self):
        report = fuzz(max_cases=4, seed=2, families=["sticky", "nullary_gate"])
        assert report.ok, report.summary()
        assert report.coverage_edges > 0
        assert report.cases_run >= report.seeds_loaded

    def test_unknown_family_raises(self):
        with pytest.raises(ParseError, match="unknown adversarial families"):
            fuzz(max_cases=1, families=["nope"])

    def test_corpus_seeds_feed_the_pool(self, tmp_path):
        save_case(simple_case("seeded"), tmp_path)
        report = fuzz(max_cases=2, seed=0, families=["sticky"], corpus_dir=tmp_path)
        assert report.seeds_loaded == 2  # corpus case + one adversarial family

    def test_divergences_are_saved_as_minimized_cases(self, tmp_path, monkeypatch):
        """Reverting the quote-aware comment stripping (a this-PR bugfix)
        must make the fuzzer find, shrink, and persist a divergence."""
        revert_quote_aware_comments(monkeypatch)
        save_dir = tmp_path / "found"
        report = fuzz(
            max_cases=0, seed=0, families=["heavy_skew"], save_dir=save_dir
        )
        assert not report.ok
        assert report.divergent
        # Seed-phase divergences are reported; search-phase ones are saved.
        assert any(
            "round-trip" in d.oracle
            for outcome in report.divergent
            for d in outcome.divergences
        )

    def test_reverted_fix_breaks_corpus_replay(self, tmp_path, monkeypatch):
        """The committed-corpus acceptance check, in miniature."""
        tgds = TGDSet([TGD((Atom(P, (x,)),), (Atom(Q, (x,)),))])
        database = Database()
        database.add(Atom(P, (Constant("100%"),)))
        save_case(case_from_program("percent", database, tgds), tmp_path)

        assert replay_corpus(tmp_path, pools="quick").ok

        revert_quote_aware_comments(monkeypatch)
        report = replay_corpus(tmp_path, pools="quick")
        assert not report.ok
        assert report.divergent

    def test_time_budget_only_bounds_iterations(self):
        report = fuzz(time_budget=0.0, seed=0, families=["sticky"])
        # Deadline expires immediately: at most the first seed replays.
        assert report.cases_run <= 1
        assert not report.interrupted
