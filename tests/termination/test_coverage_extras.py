"""Edge-path tests for the termination package's smaller surfaces.

The differential suites pin the checkers' verdicts; these tests cover the
surrounding machinery — report arithmetic, string-input parsing branches,
and the materialization baseline's inconclusive outcome — that the
end-to-end paths don't reach.
"""

from repro.core.parser import parse_database, parse_rules
from repro.storage.database import RelationalDatabase
from repro.storage.shape_finder import DeltaShapeFinder
from repro.storage.views import PrefixView
from repro.termination.incremental import IncrementalLinearChecker
from repro.termination.linear import is_chase_finite_l
from repro.termination.materialization import is_chase_finite_materialization
from repro.termination.report import (
    MaterializationReport,
    TerminationReport,
    TimingBreakdown,
)
from repro.termination.simple_linear import is_chase_finite_sl

INFINITE_RULES = "R(x,y) -> R(y,z)\n"
FINITE_RULES = "R(x,y) -> S(y,z)\nS(x,y) -> T(x)\n"
FACTS = "R(a,b).\n"


class TestTimingBreakdown:
    def test_totals_split_into_db_dependent_and_independent(self):
        timings = TimingBreakdown(t_parse=1.0, t_shapes=2.0, t_graph=4.0, t_comp=8.0)
        assert timings.t_total == 15.0
        assert timings.db_independent == 13.0
        assert timings.db_dependent == 2.0
        as_dict = timings.as_dict()
        assert as_dict["t_total"] == 15.0
        assert as_dict["db_independent"] == 13.0
        assert as_dict["db_dependent"] == 2.0


class TestReportTruthiness:
    def test_termination_report_bool_is_the_verdict(self):
        assert bool(TerminationReport(finite=True, algorithm="x"))
        assert not bool(TerminationReport(finite=False, algorithm="x"))

    def test_materialization_report_bool_treats_inconclusive_as_false(self):
        conclusive = MaterializationReport(
            finite=True, conclusive=True, atoms_materialized=1, bound=10,
            bound_saturated=False, elapsed_seconds=0.0,
        )
        inconclusive = MaterializationReport(
            finite=None, conclusive=False, atoms_materialized=1, bound=10,
            bound_saturated=False, elapsed_seconds=0.0,
        )
        assert bool(conclusive)
        assert not bool(inconclusive)


class TestStringRuleInputs:
    def test_linear_checker_parses_rule_text_and_measures_it(self):
        report = is_chase_finite_l(parse_database(FACTS), INFINITE_RULES)
        assert report.finite is False
        assert report.timings.t_parse > 0.0

    def test_simple_linear_checker_parses_rule_text(self):
        report = is_chase_finite_sl(parse_database(FACTS), INFINITE_RULES)
        assert report.finite is False
        assert report.timings.t_parse > 0.0


class TestIncrementalCheckerSurface:
    def _store(self):
        store = RelationalDatabase(name="extras")
        store.load_database(parse_database("R(a,b).\nR(b,c).\n"))
        return store

    def test_accepts_rule_text_and_exposes_parsed_tgds(self):
        store = self._store()
        checker = IncrementalLinearChecker(INFINITE_RULES, DeltaShapeFinder(store))
        assert len(checker.tgds) == 1
        # Nothing checked yet: the per-view state properties are empty.
        assert checker.graph is None
        assert checker.simplification is None

    def test_properties_populate_after_a_check(self):
        store = self._store()
        checker = IncrementalLinearChecker(INFINITE_RULES, DeltaShapeFinder(store))
        report = checker.check(PrefixView(store, 1))
        assert report.finite is False
        assert checker.graph is not None
        assert checker.simplification is not None


class TestMaterializationOutcomes:
    def test_budget_below_bound_is_inconclusive(self):
        database = parse_database(FACTS)
        tgds = parse_rules(INFINITE_RULES)
        report = is_chase_finite_materialization(database, tgds, max_atoms=5)
        assert report.conclusive is False
        assert report.finite is None
        assert report.atoms_materialized <= report.bound
        assert not report

    def test_unlimited_budget_falls_back_to_the_theoretical_bound(self):
        database = parse_database(FACTS)
        tgds = parse_rules(FINITE_RULES)
        report = is_chase_finite_materialization(database, tgds, max_atoms=None)
        assert report.conclusive is True
        assert report.finite is True
        assert report
