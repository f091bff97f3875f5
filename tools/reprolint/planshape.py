"""Plan-shape mode: EXPLAIN every compiled statement family, flag scans.

The hand-written ``EXPLAIN QUERY PLAN`` tests in
``tests/storage/test_sql_pushdown.py`` pin the plans of one rule shape.
This module generalises them: it instantiates every compiled statement
family over a panel of representative programs — multi-slot joins,
self-joins, multi-head rules, and a linear set — runs ``EXPLAIN QUERY
PLAN`` on each against a live :class:`SqliteAtomStore` schema, and reports
a finding for every relation access that degraded to a table scan.

Scan policy (mirroring the strict test convention):

* ``SCAN`` over the compiler's temp artifacts is expected — the per-rule
  ``pd_stage_*``/``pd_fired_*``/``pd_fire_*`` tables (aliases ``w``/``f``)
  and SQLite's own subquery / materialization nodes.  They hold per-round
  frontiers, not relations.
* Every other ``SCAN`` — of a ``rel_*`` table or a body/head alias
  (``t0``, ``h1``), covering index or not — is a finding: the semi-naive
  watermarks or join indexes stopped being used.

Run through ``python -m tools.reprolint --plan-shape`` (from the repo
root; ``src`` is bootstrapped onto ``sys.path``).
"""

from __future__ import annotations

import itertools
import re
import sys
from pathlib import Path
from typing import Iterable, List, Sequence

from .framework import Finding

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
RULE_NAME = "plan-shape"

#: ``SCAN <target> [USING ...]`` — EXPLAIN QUERY PLAN detail rows.
_SCAN_RE = re.compile(r"^SCAN\s+(?P<target>\S+)(?P<rest>.*)$")
#: Temp-artifact scan targets that are always fine.
_TEMP_TARGETS = ("w", "f")
_TEMP_PREFIXES = ("pd_", "sqlite_", "(")
#: Per-process EXPLAIN nonce (see :meth:`PlanCase.audit`).
_AUDIT_COUNTER = itertools.count()


def _bootstrap_src() -> None:
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


class PlanCase:
    """One compiled statement to EXPLAIN."""

    def __init__(self, family: str, label: str, sql: str, parameters: dict, store) -> None:
        self.family = family
        self.label = label
        self.sql = sql
        self.parameters = parameters
        self.store = store

    def audit(self) -> List[str]:
        """Return one message per plan violation in this statement."""
        # The sqlite3 module caches prepared statements by text, and a
        # cached EXPLAIN replays the plan compiled under the *old* schema —
        # a dropped index would go unnoticed.  A unique comment defeats the
        # cache so every audit compiles fresh.
        nonce = next(_AUDIT_COUNTER)
        rows = self.store.query(
            f"EXPLAIN QUERY PLAN /* audit {nonce} */ " + self.sql, self.parameters
        )
        details = [row[-1] for row in rows]
        problems: List[str] = []
        for detail in details:
            match = _SCAN_RE.match(detail)
            if match is None:
                continue
            target = match.group("target")
            if target in _TEMP_TARGETS or target.startswith(_TEMP_PREFIXES):
                continue
            covered = "COVERING INDEX" in detail
            kind = "covering-index scan" if covered else "table scan"
            problems.append(
                f"{self.label}: relation access degraded to a {kind}: "
                f"{detail!r} (full plan: {details})"
            )
        return problems


def _program_cases() -> Iterable[PlanCase]:
    """Instantiate every compiled statement family over the program panel."""
    _bootstrap_src()
    from repro.chase.rounds import seed_store
    from repro.core.parser import parse_database, parse_rules
    from repro.storage.sqlbackend.pushdown import PushdownRule
    from repro.storage.sqlbackend.store import SqliteAtomStore

    delta_params = {"delta_start": 0, "round_start": 10}

    def pushdown_rule_cases(
        tag: str, facts: str, rules_text: str, variant: str
    ) -> Iterable[PlanCase]:
        """stage / record / filter / head-insert for each rule of a program."""
        store = SqliteAtomStore()
        seed_store(store, parse_database(facts))
        for index, compiled in enumerate(parse_rules(rules_text).rules):
            rule = PushdownRule(index, compiled, variant, store)
            label = f"{tag}[rule {index}, {variant}]"
            for slot in range(len(compiled.body)):
                yield PlanCase(
                    "stage", f"{label} stage(seed_slot={slot})",
                    rule.stage_sql(slot), delta_params, store,
                )
            yield PlanCase("record", f"{label} record", rule.record_sql, {}, store)
            if rule.firing_sql is not None:
                yield PlanCase(
                    "filter", f"{label} filter_unsatisfied",
                    rule.firing_sql, {"round_start": 10}, store,
                )
            for head_sql, _predicate in rule.head_inserts:
                yield PlanCase(
                    "insert", f"{label} head insert",
                    head_sql, {"round_seq": 11}, store,
                )

    join_facts = "Q(a,b).\nR(b,c).\nS(a,c,d).\n"
    join_rules = "Q(x1,x2), R(x2,x3) -> S(x1,x3,z1)\n"
    self_join_facts = "R(a,b).\nR(b,c).\n"
    self_join_rules = "R(x,y), R(y,z) -> R(x,z)\n"
    multi_head_facts = "R(a,b).\nS(b,c).\nT(c,a).\n"
    multi_head_rules = "R(x,y) -> S(y,z), T(z,x)\n"
    linear_facts = "R(a,b).\nS(b,c).\nT(c).\n"
    linear_rules = "R(x,y) -> S(y,z)\nS(x,y) -> T(x)\n"

    yield from pushdown_rule_cases("join", join_facts, join_rules, "restricted")
    yield from pushdown_rule_cases("join", join_facts, join_rules, "semi-oblivious")
    yield from pushdown_rule_cases("join", join_facts, join_rules, "oblivious")
    yield from pushdown_rule_cases(
        "self-join", self_join_facts, self_join_rules, "semi-oblivious"
    )
    yield from pushdown_rule_cases(
        "multi-head", multi_head_facts, multi_head_rules, "restricted"
    )
    # Linear rules run the same round statements as joins.
    yield from pushdown_rule_cases("linear", linear_facts, linear_rules, "semi-oblivious")


#: Families the panel must produce at least one statement for — a guard
#: against the audit silently going vacuous after a refactor.
REQUIRED_FAMILIES = frozenset({"stage", "record", "filter", "insert"})


def collect_cases() -> List[PlanCase]:
    return list(_program_cases())


def run_plan_shape() -> List[Finding]:
    """Audit every statement family; return findings (empty = clean)."""
    findings: List[Finding] = []
    cases = collect_cases()
    seen_families = {case.family for case in cases}
    missing = sorted(REQUIRED_FAMILIES - seen_families)
    if missing:
        findings.append(
            Finding(
                rule=RULE_NAME,
                path="tools/reprolint/planshape.py",
                line=0,
                col=0,
                message=(
                    "plan-shape panel no longer produces statement "
                    f"families: {', '.join(missing)} — the audit went vacuous"
                ),
            )
        )
    for case in cases:
        for problem in case.audit():
            findings.append(
                Finding(
                    rule=RULE_NAME,
                    path=f"plan:{case.family}",
                    line=0,
                    col=0,
                    message=problem,
                )
            )
    return findings


def main(argv: Sequence[str] = ()) -> int:
    findings = run_plan_shape()
    for finding in findings:
        print(f"{finding.path}: [{finding.rule}] {finding.message}")
    cases = collect_cases()
    print(
        f"plan-shape: {len(cases)} statement(s) across "
        f"{len({case.family for case in cases})} families, "
        f"{len(findings)} finding(s)"
    )
    return 0 if not findings else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
