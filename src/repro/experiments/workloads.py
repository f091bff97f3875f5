"""Workload construction shared by the figure and table runners.

Two kinds of inputs are produced, matching Sections 7.1 and 8.1:

* **simple-linear workloads** — for every combined profile, a number of rule
  sets generated over a global schema, each paired with its induced database
  ``D_Σ`` (Remark 1);
* **linear workloads** — a large shape-controlled database ``D*`` with prefix
  views of increasing size, plus rule sets of linear TGDs per combined
  profile, paired with every view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..core.instances import Database, induced_database
from ..core.serializer import serialize_rules
from ..core.tgds import TGDSet
from ..generators.data_generator import DataGenerator, DataGeneratorConfig
from ..generators.profiles import CombinedProfile
from ..generators.tgd_generator import TGDGenerator, TGDGeneratorConfig, make_schema
from ..storage.database import RelationalDatabase
from ..storage.views import PrefixView
from .config import ExperimentConfig


@dataclass
class SimpleLinearWorkload:
    """One simple-linear input: the rule text, the parsed rules, and ``D_Σ``."""

    profile: CombinedProfile
    rules_text: str
    tgds: TGDSet
    database: Database
    seed: int

    @property
    def n_rules(self) -> int:
        return len(self.tgds)


@dataclass
class LinearRuleSet:
    """One linear rule set drawn from a combined profile."""

    profile: CombinedProfile
    rules_text: str
    tgds: TGDSet
    seed: int

    @property
    def n_rules(self) -> int:
        return len(self.tgds)


def global_schema(config: ExperimentConfig):
    """The shared schema every rule set draws its predicates from."""
    return make_schema(
        config.schema_size(),
        min_arity=1,
        max_arity=5,
        seed=config.seed,
    )


def build_simple_linear_workload(
    config: ExperimentConfig,
    profile_index: int,
    sample_index: int,
    schema=None,
) -> SimpleLinearWorkload:
    """Build one cell of the simple-linear grid by its (profile, sample) index.

    Workload generation is random-access: each cell derives its own RNG from
    the master seed, so the parallel sweep runner can regenerate exactly the
    workload a task names without producing the rest of the grid.
    """
    if schema is None:
        schema = global_schema(config)
    profile = config.combined_profiles()[profile_index]
    rng = config.rng("sl", profile_index, sample_index)
    ssize, tsize = profile.sample_sizes(rng)
    generator = TGDGenerator(
        schema,
        TGDGeneratorConfig(ssize=ssize, min_arity=1, max_arity=5, tsize=tsize, tclass="SL"),
        seed=rng.randrange(2**31),
    )
    tgds = generator.generate()
    return SimpleLinearWorkload(
        profile=profile,
        rules_text=serialize_rules(tgds),
        tgds=tgds,
        database=induced_database(tgds),
        seed=sample_index,
    )


def build_linear_rule_set(
    config: ExperimentConfig,
    profile_index: int,
    sample_index: int,
    schema=None,
) -> LinearRuleSet:
    """Build one linear rule set by its (profile, sample) index (random access)."""
    if schema is None:
        schema = global_schema(config)
    profile = config.combined_profiles()[profile_index]
    rng = config.rng("l", profile_index, sample_index)
    ssize, tsize = profile.sample_sizes(rng)
    generator = TGDGenerator(
        schema,
        TGDGeneratorConfig(ssize=ssize, min_arity=1, max_arity=5, tsize=tsize, tclass="L"),
        seed=rng.randrange(2**31),
    )
    tgds = generator.generate()
    return LinearRuleSet(
        profile=profile,
        rules_text=serialize_rules(tgds),
        tgds=tgds,
        seed=sample_index,
    )


def simple_linear_workloads(config: ExperimentConfig) -> Iterator[SimpleLinearWorkload]:
    """Generate the simple-linear grid (Section 7.1) at the configured scale."""
    schema = global_schema(config)
    for profile_index in range(len(config.combined_profiles())):
        for sample_index in range(config.sets_per_profile_sl):
            yield build_simple_linear_workload(config, profile_index, sample_index, schema=schema)


def linear_rule_sets(config: ExperimentConfig) -> Iterator[LinearRuleSet]:
    """Generate the 45-set analogue of ``Σ*`` (Section 8.1) at the configured scale."""
    schema = global_schema(config)
    for profile_index in range(len(config.combined_profiles())):
        for sample_index in range(config.sets_per_profile_l):
            yield build_linear_rule_set(config, profile_index, sample_index, schema=schema)


@dataclass
class AdversarialWorkload:
    """One adversarial input in the same shape as the paper workloads.

    Thin wrapper over :class:`~repro.generators.adversarial.AdversarialCase`
    so the experiment runners (and the fuzz harness's seed pool) can consume
    adversarial families through the same interface as the grid workloads.
    """

    family: str
    rules_text: str
    tgds: TGDSet
    database: Database
    seed: int
    notes: str

    @property
    def n_rules(self) -> int:
        return len(self.tgds)


def adversarial_workloads(
    config: ExperimentConfig,
    families: Optional[Tuple[str, ...]] = None,
    per_family: int = 1,
    scale: Optional[float] = None,
) -> Iterator[AdversarialWorkload]:
    """Generate adversarial workloads at the configured scale.

    The default *scale* maps the preset ladder onto the adversarial
    families' own size knob: ``smoke`` stays at 1.0 (a handful of rules and
    facts per case) and larger presets grow roughly with the predicate
    scale, which is the axis the families actually stress (join width and
    skew, not rule-set cardinality).
    """
    from ..generators.adversarial import adversarial_cases

    if scale is None:
        scale = max(1.0, config.predicate_scale * 10.0)
    for case in adversarial_cases(
        seed=config.seed, scale=scale, families=families, per_family=per_family
    ):
        yield AdversarialWorkload(
            family=case.family,
            rules_text=serialize_rules(case.tgds),
            tgds=case.tgds,
            database=case.database,
            seed=case.seed,
            notes=case.notes,
        )


def build_dstar(config: ExperimentConfig) -> RelationalDatabase:
    """Build the large shape-controlled database ``D*`` (Section 8.1) at scale.

    ``D*`` covers every predicate of the global schema (the paper's ``D*``
    covers all 1000 schema predicates), so any rule set drawn from the schema
    finds its predicates populated.
    """
    sizes = config.database_sizes()
    schema = global_schema(config)
    generator = DataGenerator(
        DataGeneratorConfig(
            preds=len(schema),
            min_arity=1,
            max_arity=5,
            dsize=config.db_domain_size,
            rsize=max(sizes),
        ),
        seed=config.seed + 1,
        schema=schema,
    )
    return generator.generate(name="dstar")


def restrict_view_to_rules(view: PrefixView, tgds: TGDSet) -> PrefixView:
    """Restrict a ``D*`` view to ``sch(Σ)`` (footnote 1 of Section 4)."""
    return view.restricted_to(tgds.schema().predicates)


def dstar_views(config: ExperimentConfig, store: Optional[RelationalDatabase] = None) -> List[PrefixView]:
    """Return the prefix views of ``D*`` (one per configured database size)."""
    if store is None:
        store = build_dstar(config)
    return [
        PrefixView(store, size, name=f"dstar_first_{size}")
        for size in config.database_sizes()
    ]
