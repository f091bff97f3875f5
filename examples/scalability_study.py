"""A miniature version of the paper's scalability study (Figures 1, 2, and 5).

Generates simple-linear and linear workloads with the same generators used
by the full benchmark harness, runs the termination checkers, and prints the
aggregated series: runtime vs number of rules (Figures 1 and 5) and number
of shapes vs database size (Figure 2).

Run with::

    python examples/scalability_study.py            # quick (smoke scale)
    python examples/scalability_study.py --default  # the benchmark-scale sweep
"""

import sys

from repro.experiments import DEFAULT, SMOKE, run_experiment
from repro.experiments.reporting import group_mean, format_table


def main() -> None:
    config = DEFAULT if "--default" in sys.argv else SMOKE

    print("running the simple-linear sweep (Figure 1)...")
    rows = run_experiment("figure1", config)
    aggregated = group_mean(
        rows, ["predicate_profile", "tgd_profile"], ["n_rules", "t_parse", "t_graph", "t_comp", "t_total"]
    )
    print(format_table(aggregated, title="Figure 1 — IsChaseFinite[SL] runtime (seconds, means)"))

    print("\nrunning the shape-count sweep (Figure 2)...")
    rows = run_experiment("figure2", config)
    aggregated = group_mean(rows, ["predicate_profile", "n_tuples_per_relation"], ["n_shapes"])
    print(format_table(aggregated, title="Figure 2 — number of shapes per database size"))

    print("\nrunning the linear sweep for the largest predicate profile (Figure 5)...")
    rows = run_experiment("figure5", config)
    aggregated = group_mean(rows, ["tgd_profile"], ["n_rules", "t_parse", "t_graph", "t_comp", "t_total"])
    print(format_table(aggregated, title="Figure 5 — db-independent runtime of IsChaseFinite[L] (seconds, means)"))

    print(
        "\nTake-home messages (compare with Sections 7.3 and 8.3 of the paper):\n"
        "  * runtime grows with the number of rules, not with the database;\n"
        "  * the special-SCC search (t-comp) is a small fraction of the total;\n"
        "  * the number of shapes grows slowly with the database size and\n"
        "    faster with the number of predicates."
    )


if __name__ == "__main__":
    main()
