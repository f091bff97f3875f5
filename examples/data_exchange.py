"""Data exchange: source-to-target mappings, termination, and universal solutions.

This example mirrors the classic data-exchange use of the chase (Fagin et
al.): a source schema is mapped into a target schema by simple-linear TGDs,
the termination checker confirms that materialisation is safe, and the chase
then computes a universal solution.  A second mapping with a feedback loop
shows the checker rejecting materialisation before any work is wasted.

Run with::

    python examples/data_exchange.py
"""

from repro import (
    ChaseLimits,
    build_dependency_graph,
    chase,
    find_special_sccs,
    is_chase_finite_sl,
    parse_database,
    parse_rules,
)
from repro.chase import satisfies

SOURCE_DATA = """
% source relations: a small HR database
Emp(alice, cs).
Emp(bob, cs).
Emp(carol, math).
Dept(cs, building7).
Dept(math, building2).
"""

#: A weakly-acyclic source-to-target mapping plus target constraints.
MAPPING = """
% source-to-target TGDs
Emp(e,d)  -> Works(e,d), Person(e)
Dept(d,b) -> Unit(d,b)

% target TGDs: every unit has a head, and heads are persons
Unit(d,b)   -> HeadOf(h,d)
HeadOf(h,d) -> Person(h)
"""

#: The same mapping with a feedback rule that makes the chase infinite:
#: every head must itself work somewhere, and working somewhere spawns a unit.
LOOPING_MAPPING = MAPPING + """
HeadOf(h,d) -> Works(h,d2)
Works(e,d)  -> Unit(d,b)
"""


def materialise(name: str, rules_text: str) -> None:
    rules = parse_rules(rules_text)
    source = parse_database(SOURCE_DATA)

    print(f"=== {name} ===")
    weakly_acyclic = not find_special_sccs(build_dependency_graph(rules))
    print(f"rules: {len(rules)}  (weakly acyclic: {weakly_acyclic})")
    report = is_chase_finite_sl(source, rules)
    print(f"IsChaseFinite[SL]: finite={report.finite}  "
          f"special SCCs={report.statistics['n_special_sccs']}")

    if report.finite:
        result = chase(source, rules)
        assert result.terminated
        assert satisfies(result.instance, rules)
        target_atoms = [a for a in result.instance if a.predicate.name not in ("Emp", "Dept")]
        print(f"universal solution: {len(result.instance)} atoms "
              f"({len(target_atoms)} target atoms), computed in {result.rounds} rounds")
        for atom in sorted(target_atoms, key=repr)[:8]:
            print(f"  {atom!r}")
        if len(target_atoms) > 8:
            print(f"  ... and {len(target_atoms) - 8} more")
    else:
        bounded = chase(source, rules, limits=ChaseLimits(max_atoms=200))
        print(f"materialisation skipped: the chase exceeded {len(bounded.instance)} atoms "
              "and would never stop")
    print()


def main() -> None:
    materialise("terminating exchange mapping", MAPPING)
    materialise("looping exchange mapping", LOOPING_MAPPING)


if __name__ == "__main__":
    main()
