"""The Deep family (Deep-100 / Deep-200 / Deep-300).

The Deep scenarios of the chase benchmark [Benedikt et al., PODS 2017]
stress chase implementations with long derivation chains: thousands of
simple-linear, *weakly acyclic* source-to-target and target TGDs over a
schema of ~1300 predicates of arity 4, with a small source instance (1000
atoms, one per source relation, each with a distinct shape).

The original artifacts are replaced by a synthetic builder that reproduces
those structural properties (the Deep rows of
:data:`~repro.scenarios.base.PAPER_TABLE_1`):

* ``n_source`` source predicates, each holding exactly one tuple whose shape
  is drawn round-robin from the arity-4 shape catalogue so that the number
  of shapes equals the number of atoms (Table 1 reports 1000 shapes for 1000
  atoms);
* the remaining predicates are arranged in ``depth`` layers; every rule maps
  a predicate of layer ``i`` to a predicate of layer ``i+1`` (never
  backwards), so the dependency graph is a DAG and the rule set is weakly
  acyclic — the chase terminates, as in the original Deep scenarios;
* rule bodies are simple (distinct variables) and heads introduce a fresh
  existential variable with the same 10% probability used by the synthetic
  generator, plus enough copy rules to reach the exact rule count of
  Table 1.
"""

from __future__ import annotations

import random
from typing import List

from ..core.predicates import Predicate
from ..core.rules import compile_rule
from ..core.tgds import TGDSet
from ..exceptions import ExperimentConfigError
from ..simplification.shapes import identifier_tuples_of_arity
from ..storage.database import RelationalDatabase
from .base import PAPER_TABLE_1, Scenario

#: Arity of every Deep predicate (Table 1).
DEEP_ARITY = 4

#: Total number of predicates in the Deep schema (Table 1).
DEEP_PREDICATES = 1299

#: Number of source relations / source atoms (Table 1: 1000 atoms, 1000 shapes).
DEEP_SOURCE_PREDICATES = 1000

#: Rule counts per member (Table 1).
DEEP_RULE_COUNTS = {"Deep-100": 4241, "Deep-200": 4541, "Deep-300": 4841}


def _source_tuple(rng: random.Random, shape_ids, index: int):
    """Build one source tuple with the requested shape."""
    block_count = max(shape_ids)
    values = [f"d{index}_{block}" for block in range(1, block_count + 1)]
    return tuple(values[identifier - 1] for identifier in shape_ids)


def build_deep(name: str = "Deep-100", scale: float = 1.0, seed: int = 7) -> Scenario:
    """Build a synthetic Deep scenario.

    Parameters
    ----------
    name:
        ``"Deep-100"``, ``"Deep-200"``, or ``"Deep-300"``.
    scale:
        Fraction of the nominal rule and atom counts to build (1.0 = Table 1
        sizes; they are small enough to build in full by default).
    seed:
        Seed for the private random generator.
    """
    if name not in DEEP_RULE_COUNTS:
        raise ExperimentConfigError(f"unknown Deep member {name!r}")
    if scale <= 0 or scale > 1:
        raise ExperimentConfigError("scale must be in (0, 1]")

    rng = random.Random(seed)
    n_rules = max(1, round(DEEP_RULE_COUNTS[name] * scale))
    n_predicates = max(4, round(DEEP_PREDICATES * scale))
    n_sources = max(2, round(DEEP_SOURCE_PREDICATES * scale))
    n_sources = min(n_sources, n_predicates - 2)

    predicates = [Predicate(f"deep_{index}", DEEP_ARITY) for index in range(1, n_predicates + 1)]
    sources = predicates[:n_sources]
    targets = predicates[n_sources:]

    # --- database: one tuple per source predicate, round-robin over shapes.
    shape_catalogue = list(identifier_tuples_of_arity(DEEP_ARITY))
    store = RelationalDatabase(name=name)
    for index, predicate in enumerate(sources):
        relation = store.create_relation(predicate)
        shape_ids = shape_catalogue[index % len(shape_catalogue)]
        relation.insert(_source_tuple(rng, shape_ids, index))
    for predicate in targets:
        store.create_relation(predicate)

    # --- rules: layered, strictly forward, hence weakly acyclic.
    layers: List[List[Predicate]] = [sources]
    layer_count = max(2, min(len(targets), 10))
    per_layer = max(1, len(targets) // layer_count)
    for layer_index in range(layer_count):
        start = layer_index * per_layer
        end = len(targets) if layer_index == layer_count - 1 else (layer_index + 1) * per_layer
        layer = targets[start:end]
        if layer:
            layers.append(layer)

    variables = [f"x{i}" for i in range(1, DEEP_ARITY + 1)]
    tgds = TGDSet()
    attempts = 0
    while len(tgds) < n_rules and attempts < n_rules * 50:
        attempts += 1
        layer_index = rng.randrange(len(layers) - 1)
        body_predicate = rng.choice(layers[layer_index])
        head_predicate = rng.choice(layers[layer_index + 1])
        head_terms: List[str] = []
        existential_counter = 0
        for _ in range(DEEP_ARITY):
            if rng.random() < 0.10:
                existential_counter += 1
                head_terms.append(f"z{existential_counter}")
            else:
                head_terms.append(rng.choice(variables))
        if all(term.startswith("z") for term in head_terms):
            head_terms[0] = variables[0]
        tgds.add_rule(
            compile_rule(
                [(body_predicate, variables)], [(head_predicate, head_terms)], f"{name}_r{attempts}"
            )
        )

    return Scenario(
        name=name,
        family="Deep",
        tgds=tgds,
        store=store,
        paper_stats=PAPER_TABLE_1[name],
        scale=scale,
    )
