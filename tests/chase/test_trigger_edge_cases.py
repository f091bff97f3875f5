"""Trigger-engine edge cases, pinned across every strategy/backend combination.

Three families the delta-driven join machinery handles specially:

* **self-joins** — the same predicate occurring twice in one body: the
  semi-naive ordering constraint must still produce every homomorphism
  exactly once when a single delta atom fills both slots;
* **empty frontiers** — ``body`` and ``head`` share no variable: the
  frontier key degenerates to ``()``, so the semi-oblivious chase fires
  such a rule at most once *ever* while the oblivious chase fires it per
  body witness — both pinned here by exact expected instances;
* **single-atom bodies** — the linear fast path, with and without repeated
  body variables (the non-simple matching filter).

Every case runs under every (variant, strategy, backend) combination and
through the parallel executor at several worker counts, and must produce
the identical result everywhere.
"""

import pytest

from repro.chase.engine import chase
from repro.chase.parallel import parallel_chase
from repro.chase.result import ChaseLimits
from repro.core.parser import parse_database, parse_rules

from tests.helpers import chase_result_fingerprint as _fingerprint

VARIANTS = ("oblivious", "semi-oblivious", "restricted")
#: Every valid (strategy, backend) pairing — "sql-pushdown" exists only on
#: the sqlite backend, where its seq-watermark slot constraints must
#: reproduce these exact pinned semantics: it applies whole set-based rounds
#: (and, for the linear cases here, the recursive-CTE fixpoint tier) inside
#: SQLite.
STRATEGY_BACKEND_COMBOS = (
    ("naive", "instance"),
    ("naive", "relational"),
    ("naive", "sqlite"),
    ("indexed", "instance"),
    ("indexed", "relational"),
    ("indexed", "sqlite"),
    ("sql-pushdown", "sqlite"),
)
LIMITS = ChaseLimits(max_atoms=500, max_rounds=20)

#: (name, rules, facts) triples for the differential grid (one fact per line).
EDGE_CASES = (
    (
        "self_join_transitive",
        "R(x,y), R(y,z) -> R(x,z)",
        "R(a,b).\nR(b,c).\nR(c,d).",
    ),
    (
        "self_join_same_delta_atom_in_both_slots",
        "R(x,y), R(y,x) -> S(x,y)\nT(u) -> R(u,u)",
        "T(a).\nT(b).",
    ),
    (
        "self_join_with_existential",
        "R(x,y), R(y,z) -> S(x,w)",
        "R(a,b).\nR(b,c).",
    ),
    (
        "empty_frontier_linear",
        "P(x) -> S(z,z)",
        "P(a).\nP(b).\nP(c).",
    ),
    (
        "empty_frontier_join_body",
        "R(x,y), R(y,z) -> P(w)",
        "R(a,b).\nR(b,c).\nR(b,d).",
    ),
    (
        "single_atom_body_plain",
        "R(x,y) -> S(y,z)\nS(x,y) -> T(x)",
        "R(a,b).\nR(b,b).",
    ),
    (
        "single_atom_body_repeated_variable",
        "R(x,x) -> S(x,z)",
        "R(a,a).\nR(a,b).\nR(b,b).",
    ),
)


def _load(case_name):
    for name, rules, facts in EDGE_CASES:
        if name == case_name:
            return parse_database(facts), parse_rules(rules)
    raise KeyError(case_name)


class TestEdgeCaseGrid:
    @pytest.mark.parametrize("case", [case[0] for case in EDGE_CASES])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_strategy_and_backend_agrees(self, case, variant):
        database, tgds = _load(case)
        reference = chase(
            database, tgds, variant=variant, strategy="naive", limits=LIMITS
        )
        expected = _fingerprint(reference)
        for strategy, backend in STRATEGY_BACKEND_COMBOS:
            result = chase(
                database,
                tgds,
                variant=variant,
                strategy=strategy,
                backend=backend,
                limits=LIMITS,
            )
            assert _fingerprint(result) == expected, (
                f"{case}: {strategy}/{backend} disagrees with the reference"
            )

    @pytest.mark.parametrize("case", [case[0] for case in EDGE_CASES])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_parallel_executor_agrees(self, case, variant):
        database, tgds = _load(case)
        expected = _fingerprint(
            chase(database, tgds, variant=variant, strategy="naive", limits=LIMITS)
        )
        for workers, executor in ((1, "auto"), (2, "serial"), (4, "thread")):
            result = parallel_chase(
                database,
                tgds,
                variant=variant,
                workers=workers,
                limits=LIMITS,
                executor=executor,
            )
            assert _fingerprint(result) == expected, (
                f"{case}: parallel workers={workers}/{executor} disagrees"
            )

    @pytest.mark.parametrize("case", [case[0] for case in EDGE_CASES])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_parallel_pushdown_agrees(self, case, variant):
        # The sql-pushdown matching worker: compiled partition-filtered SQL
        # joins must own exactly the same (entry, seed atom) pairs the
        # coordinator would have routed, on these same edge cases.
        database, tgds = _load(case)
        expected = _fingerprint(
            chase(database, tgds, variant=variant, strategy="naive", limits=LIMITS)
        )
        for workers, executor in ((2, "serial"), (3, "thread")):
            result = parallel_chase(
                database,
                tgds,
                variant=variant,
                workers=workers,
                limits=LIMITS,
                backend="sqlite",
                executor=executor,
                strategy="sql-pushdown",
            )
            assert _fingerprint(result) == expected, (
                f"{case}: pushdown workers={workers}/{executor} disagrees"
            )


class TestPinnedSemantics:
    """Exact expected instances for the semantically subtle cases."""

    def test_transitive_closure_completes(self):
        database, tgds = _load("self_join_transitive")
        result = chase(database, tgds, limits=LIMITS)
        assert result.terminated
        atoms = {str(atom) for atom in result.instance}
        assert atoms == {
            "R(a, b)", "R(b, c)", "R(c, d)",
            "R(a, c)", "R(b, d)", "R(a, d)",
        }

    def test_self_join_seeded_by_one_delta_atom(self):
        # T(a) -> R(a,a); the delta atom R(a,a) must fill *both* body slots
        # of the self-join in the next round (classic semi-naive pitfall).
        database, tgds = _load("self_join_same_delta_atom_in_both_slots")
        result = chase(database, tgds, limits=LIMITS)
        assert result.terminated
        atoms = {str(atom) for atom in result.instance}
        assert {"S(a, a)", "S(b, b)"} <= atoms

    def test_empty_frontier_fires_once_semi_obliviously(self):
        database, tgds = _load("empty_frontier_linear")
        result = chase(database, tgds, variant="semi-oblivious", limits=LIMITS)
        # One firing for the empty frontier assignment, hence one null.
        assert result.triggers_fired == 1
        assert result.atoms_created == 1
        assert len(result.instance.nulls()) == 1

    def test_empty_frontier_fires_per_witness_obliviously(self):
        database, tgds = _load("empty_frontier_linear")
        result = chase(database, tgds, variant="oblivious", limits=LIMITS)
        # One firing (and one null) per body homomorphism: P(a), P(b), P(c).
        assert result.triggers_fired == 3
        assert result.atoms_created == 3
        assert len(result.instance.nulls()) == 3

    def test_empty_frontier_restricted_fires_at_most_once(self):
        database, tgds = _load("empty_frontier_linear")
        result = chase(database, tgds, variant="restricted", limits=LIMITS)
        assert result.triggers_fired == 1
        assert result.atoms_created == 1

    def test_repeated_variable_body_only_matches_diagonal(self):
        database, tgds = _load("single_atom_body_repeated_variable")
        result = chase(database, tgds, limits=LIMITS)
        # R(a,b) must not match R(x,x); only R(a,a) and R(b,b) fire.
        assert result.triggers_fired == 2
        assert result.terminated
