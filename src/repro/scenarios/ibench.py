"""The iBench family (STB-128 and ONT-256).

iBench [Arocena et al., VLDB 2015] generates schema-mapping scenarios;
the paper uses two of them — STB-128 (derived from STBenchmark) and
ONT-256 — as sets of simple-linear TGDs, with source instances of about
1000 tuples per source relation generated with ToXgene.

The synthetic builder reproduces the Table 1 statistics (number of
predicates, arity range, rule count, and the order of magnitude of the
shape count) with a mapping-shaped rule set:

* predicates are split into *source* and *target* relations with arities
  drawn from the reported range;
* every rule copies a source (or intermediate) relation into a target
  relation: the head keeps a projection of the body variables and introduces
  fresh existential variables for the remaining positions — the classic
  source-to-target TGD shape produced by iBench primitives (copy, add
  attribute, vertical partition, ...);
* rules never point back from later relations to earlier ones, so the rule
  sets are weakly acyclic and the chase terminates, as in the original
  scenarios;
* the source instance holds ``tuples_per_source`` rows per source relation
  (1000 in the paper; scaled down by default), generated with a mix of
  shapes so the shape counts land near the reported ones.
"""

from __future__ import annotations

import random
from typing import List

from ..core.predicates import Predicate
from ..core.rules import compile_rule
from ..core.tgds import TGDSet
from ..exceptions import ExperimentConfigError
from ..storage.database import RelationalDatabase
from .base import PAPER_TABLE_1, Scenario

#: Structural parameters of the two members (Table 1).
IBENCH_MEMBERS = {
    "STB-128": {"n_pred": 287, "arity_min": 1, "arity_max": 10, "n_rules": 231, "n_sources": 129},
    "ONT-256": {"n_pred": 662, "arity_min": 1, "arity_max": 11, "n_rules": 785, "n_sources": 245},
}

#: Tuples per source relation used by the paper (from the ChaseBench data).
IBENCH_TUPLES_PER_SOURCE = 1000


def build_ibench(
    name: str = "STB-128",
    scale: float = 0.1,
    seed: int = 29,
    tuples_per_source: int = None,
) -> Scenario:
    """Build a synthetic iBench scenario.

    Parameters
    ----------
    name:
        ``"STB-128"`` or ``"ONT-256"``.
    scale:
        Fraction of the nominal per-source tuple count to generate
        (``scale=1.0`` reproduces the paper's 1000 tuples per source
        relation); the schema and rule counts are always built in full.
    seed:
        Seed for the private random generator.
    tuples_per_source:
        Overrides the scaled tuple count when given.
    """
    if name not in IBENCH_MEMBERS:
        raise ExperimentConfigError(f"unknown iBench member {name!r}")
    if scale <= 0:
        raise ExperimentConfigError("scale must be positive")
    parameters = IBENCH_MEMBERS[name]
    if tuples_per_source is None:
        tuples_per_source = max(1, round(IBENCH_TUPLES_PER_SOURCE * scale))

    rng = random.Random(seed)
    n_pred = parameters["n_pred"]
    arity_min = parameters["arity_min"]
    arity_max = parameters["arity_max"]
    n_rules = parameters["n_rules"]

    prefix = name.replace("-", "_").lower()
    predicates = [
        Predicate(f"{prefix}_rel{index}", rng.randint(arity_min, arity_max))
        for index in range(1, n_pred + 1)
    ]
    # One shape per populated source relation keeps the database-wide shape
    # count at the value Table 1 reports (129 for STB-128, 245 for ONT-256).
    n_sources = min(parameters["n_sources"], n_pred - 1)
    sources, targets = predicates[:n_sources], predicates[n_sources:]

    # --- rules: source/earlier-target -> strictly later target (weakly acyclic).
    x_pool = [f"x{i}" for i in range(1, arity_max + 1)]
    tgds = TGDSet()
    attempts = 0
    last_body_index = n_pred - 2  # the last predicate can only be a head
    while len(tgds) < n_rules and attempts < n_rules * 60:
        attempts += 1
        body_index = rng.randint(0, last_body_index)
        body_predicate = predicates[body_index]
        head_index = rng.randint(max(body_index + 1, n_sources), n_pred - 1)
        head_predicate = predicates[head_index]
        body_variables = x_pool[: body_predicate.arity]
        head_terms: List[str] = []
        existential_counter = 0
        for position in range(head_predicate.arity):
            if rng.random() < 0.25:
                existential_counter += 1
                head_terms.append(f"z{existential_counter}")
            else:
                head_terms.append(rng.choice(body_variables))
        if all(term.startswith("z") for term in head_terms):
            head_terms[0] = body_variables[0]
        tgds.add_rule(
            compile_rule(
                [(body_predicate, body_variables)],
                [(head_predicate, head_terms)],
                f"{prefix}_r{attempts}",
            )
        )

    # --- data: tuples_per_source rows per source relation, mixed shapes.
    store = RelationalDatabase(name=name)
    for predicate in predicates:
        store.create_relation(predicate)
    for source_index, predicate in enumerate(sources):
        relation = store.relation(predicate.name)
        # One shape per relation, varied across relations, so that the
        # database-wide shape count equals the number of source relations as
        # in Table 1.  The shape merges the first ``k`` positions (a valid
        # identifier tuple of the form 1,1,...,1,2,3,...), with ``k`` varying
        # per relation; high arities are handled without enumerating the full
        # Bell-sized shape catalogue.
        arity = predicate.arity
        # Cap the number of merged positions at 3: real iBench/ToXgene data
        # repeats a value in a couple of columns at most, and an all-equal
        # wide tuple would force any shape finder into Bell(arity) queries.
        merged_prefix = (source_index % min(arity, 3)) + 1
        identifiers = tuple(
            1 if position < merged_prefix else position - merged_prefix + 2
            for position in range(arity)
        )
        block_count = max(identifiers)
        for row_index in range(tuples_per_source):
            values = [f"{prefix}_{source_index}_{row_index}_{block}" for block in range(block_count)]
            relation.insert(tuple(values[identifier - 1] for identifier in identifiers))

    return Scenario(
        name=name,
        family="iBench",
        tgds=tgds,
        store=store,
        paper_stats=PAPER_TABLE_1[name],
        scale=scale,
    )
