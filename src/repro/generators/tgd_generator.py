"""The shape-controlled TGD generator (Section 6.2).

Existing dependency generators (iBench and friends) cannot control the shape
of the body atoms, so the paper implements its own generator, parameterised
by

* a set ``S`` of available predicates,
* ``ssize`` — number of predicates actually used (``|sch(Σ)|``),
* ``min``/``max`` — arity range of the used predicates,
* ``tsize`` — number of generated TGDs,
* ``tclass`` — ``SL`` (simple-linear) or ``L`` (linear).

Every generated TGD is single-head (as in the paper's experiments —
Section 6.2 argues multi-head TGDs do not change the conclusions).  For a
simple-linear TGD the body positions receive pairwise distinct variables;
for a linear TGD a body shape is drawn first and dictates how body variables
repeat.  Each head position is existential with probability
``existential_probability`` (10% in the paper) and otherwise reuses a random
body variable; at least one head position is forced to reuse a body variable
so that generated TGDs always have a non-empty frontier, matching the
paper's standing assumption (Section 3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.predicates import Predicate, Schema
from ..core.rules import CompiledRule, compile_rule
from ..core.tgds import TGDSet
from ..exceptions import ExperimentConfigError
from ..simplification.shapes import identifier_tuples_of_arity

#: Probability with which a head position is existential (Section 6.2).
DEFAULT_EXISTENTIAL_PROBABILITY = 0.10


@dataclass(frozen=True)
class TGDGeneratorConfig:
    """The tuning parameters ``(ssize, min, max, tsize, tclass)`` of Section 6.2."""

    ssize: int
    min_arity: int
    max_arity: int
    tsize: int
    tclass: str = "SL"
    existential_probability: float = DEFAULT_EXISTENTIAL_PROBABILITY

    def __post_init__(self):
        if self.ssize < 1:
            raise ExperimentConfigError("ssize must be >= 1")
        if not 1 <= self.min_arity <= self.max_arity:
            raise ExperimentConfigError("arity range must satisfy 1 <= min <= max")
        if self.tsize < 0:
            raise ExperimentConfigError("tsize must be >= 0")
        if self.tclass not in ("SL", "L"):
            raise ExperimentConfigError("tclass must be 'SL' or 'L'")
        if not 0.0 <= self.existential_probability <= 1.0:
            raise ExperimentConfigError("existential_probability must be in [0, 1]")


def make_schema(
    size: int,
    min_arity: int = 1,
    max_arity: int = 5,
    seed: Optional[int] = None,
    prefix: str = "p",
) -> Schema:
    """Build a global schema of *size* predicates with arities drawn uniformly.

    The paper first builds a 1000-predicate schema and then lets every rule
    set draw its predicates from it (Section 7.1); this helper plays that
    role.
    """
    rng = random.Random(seed)
    return Schema(
        Predicate(f"{prefix}{index}", rng.randint(min_arity, max_arity))
        for index in range(1, size + 1)
    )


class TGDGenerator:
    """Shape-controlled generator of single-head (simple-)linear TGDs."""

    def __init__(
        self,
        schema: Schema,
        config: TGDGeneratorConfig,
        seed: Optional[int] = None,
    ):
        self.schema = schema
        self.config = config
        self._rng = random.Random(seed)
        self._shapes_by_arity = {
            arity: list(identifier_tuples_of_arity(arity))
            for arity in range(1, config.max_arity + 1)
        }

    # ------------------------------------------------------------------ #
    # Predicate selection

    def _choose_schema_subset(self) -> List[Predicate]:
        config = self.config
        eligible = [
            predicate
            for predicate in self.schema
            if config.min_arity <= predicate.arity <= config.max_arity
        ]
        if len(eligible) < config.ssize:
            raise ExperimentConfigError(
                f"schema offers only {len(eligible)} predicates in the arity range, "
                f"but ssize={config.ssize} were requested"
            )
        return self._rng.sample(eligible, config.ssize)

    # ------------------------------------------------------------------ #
    # Single TGD generation

    def _body_variables(self, arity: int) -> List[str]:
        """Draw the body variable names: distinct for SL, shape-driven for L."""
        fresh = [f"x{i}" for i in range(1, arity + 1)]
        if self.config.tclass == "SL":
            return fresh
        identifiers = self._rng.choice(self._shapes_by_arity[arity])
        return [fresh[identifier - 1] for identifier in identifiers]

    def _head_terms(self, head_arity: int, body_variables: Sequence[str]) -> List[str]:
        """Fill head positions: existential with probability p, else a body variable."""
        distinct_body = list(dict.fromkeys(body_variables))
        terms: List[str] = []
        existential_counter = 0
        for _ in range(head_arity):
            if self._rng.random() < self.config.existential_probability:
                existential_counter += 1
                terms.append(f"z{existential_counter}")
            else:
                terms.append(self._rng.choice(distinct_body))
        if all(term.startswith("z") for term in terms):
            # Force a non-empty frontier (the paper's standing assumption).
            terms[self._rng.randrange(head_arity)] = self._rng.choice(distinct_body)
        return terms

    def _generate_rule(self, predicates: Sequence[Predicate], label: str) -> CompiledRule:
        body_predicate = self._rng.choice(predicates)
        head_predicate = self._rng.choice(predicates)
        body_variables = self._body_variables(body_predicate.arity)
        head_terms = self._head_terms(head_predicate.arity, body_variables)
        return compile_rule(
            [(body_predicate, body_variables)], [(head_predicate, head_terms)], label
        )

    # ------------------------------------------------------------------ #
    # Entry point

    def generate(self) -> TGDSet:
        """Generate the configured number of TGDs over a fresh schema subset."""
        predicates = self._choose_schema_subset()
        tgds = TGDSet()
        attempts = 0
        # Duplicate TGDs are legal but the paper counts *distinct* rules, so
        # retry a bounded number of times before accepting a shorter set.
        max_attempts = max(10, self.config.tsize * 20)
        label_counter = 0
        while len(tgds) < self.config.tsize and attempts < max_attempts:
            attempts += 1
            label_counter += 1
            tgds.add_rule(self._generate_rule(predicates, label=f"g{label_counter}"))
        return tgds


def generate_tgds(
    schema: Schema,
    ssize: int,
    min_arity: int,
    max_arity: int,
    tsize: int,
    tclass: str = "SL",
    seed: Optional[int] = None,
    existential_probability: float = DEFAULT_EXISTENTIAL_PROBABILITY,
) -> TGDSet:
    """Functional shorthand mirroring the paper's parameter tuple."""
    config = TGDGeneratorConfig(
        ssize=ssize,
        min_arity=min_arity,
        max_arity=max_arity,
        tsize=tsize,
        tclass=tclass,
        existential_probability=existential_probability,
    )
    return TGDGenerator(schema, config, seed=seed).generate()
