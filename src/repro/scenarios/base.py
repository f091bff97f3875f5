"""Scenario objects and the Table 1 registry.

Section 9 of the paper validates the synthetic findings on three families of
databases and rule sets from the literature: **Deep**, **LUBM**, and
**iBench** (STB-128 and ONT-256).  The original artifacts are not shipped
with this reproduction; instead, each family has a synthetic builder that
reproduces the *schema statistics* reported in Table 1 (number of
predicates, arity range, number of rules, number of shapes) at a
configurable data scale.  Those statistics are what drive the algorithms
under evaluation, so a scenario that matches them (:data:`PAPER_TABLE_1`)
exercises the same work as the original artifacts would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core.tgds import TGDSet
from ..storage.database import RelationalDatabase


@dataclass(frozen=True)
class ScenarioStats:
    """The per-scenario statistics reported in Table 1 of the paper."""

    n_pred: int
    arity_min: int
    arity_max: int
    n_atoms: int
    n_shapes: int
    n_rules: int

    @property
    def arity_label(self) -> str:
        """Render the arity column of Table 1 (single value or range)."""
        if self.arity_min == self.arity_max:
            return str(self.arity_min)
        return f"[{self.arity_min},{self.arity_max}]"


@dataclass
class Scenario:
    """A concrete scenario: a rule set, a backing store, and its statistics."""

    name: str
    family: str
    tgds: TGDSet
    store: RelationalDatabase
    paper_stats: ScenarioStats
    scale: float = 1.0

    def measured_stats(self) -> ScenarioStats:
        """Recompute the Table 1 statistics from the built artefacts."""
        from ..storage.shape_finder import InMemoryShapeFinder

        schema = self.tgds.schema().union(self.store.schema())
        arities = [predicate.arity for predicate in schema]
        shapes = InMemoryShapeFinder(self.store).find_shapes()
        return ScenarioStats(
            n_pred=len(schema),
            arity_min=min(arities) if arities else 0,
            arity_max=max(arities) if arities else 0,
            n_atoms=self.store.total_rows(),
            n_shapes=len(shapes),
            n_rules=len(self.tgds),
        )


#: Table 1 of the paper, verbatim.
PAPER_TABLE_1: Dict[str, ScenarioStats] = {
    "Deep-100": ScenarioStats(n_pred=1299, arity_min=4, arity_max=4, n_atoms=1000, n_shapes=1000, n_rules=4241),
    "Deep-200": ScenarioStats(n_pred=1299, arity_min=4, arity_max=4, n_atoms=1000, n_shapes=1000, n_rules=4541),
    "Deep-300": ScenarioStats(n_pred=1299, arity_min=4, arity_max=4, n_atoms=1000, n_shapes=1000, n_rules=4841),
    "LUBM-1": ScenarioStats(n_pred=104, arity_min=1, arity_max=2, n_atoms=99_547, n_shapes=30, n_rules=137),
    "LUBM-10": ScenarioStats(n_pred=104, arity_min=1, arity_max=2, n_atoms=1_272_575, n_shapes=30, n_rules=137),
    "LUBM-100": ScenarioStats(n_pred=104, arity_min=1, arity_max=2, n_atoms=13_405_381, n_shapes=30, n_rules=137),
    "LUBM-1K": ScenarioStats(n_pred=104, arity_min=1, arity_max=2, n_atoms=133_573_854, n_shapes=30, n_rules=137),
    "STB-128": ScenarioStats(n_pred=287, arity_min=1, arity_max=10, n_atoms=1_109_037, n_shapes=129, n_rules=231),
    "ONT-256": ScenarioStats(n_pred=662, arity_min=1, arity_max=11, n_atoms=2_146_490, n_shapes=245, n_rules=785),
}

#: Table 2 of the paper (milliseconds): the reference value each Table 2 row
#: carries next to the measured one (:mod:`repro.experiments.tables`).
PAPER_TABLE_2_MS: Dict[str, Dict[str, float]] = {
    "Deep-100": {"t_parse": 214, "t_graph": 90, "t_comp": 10, "t_shapes_indb": 6641, "t_shapes_inmem": 447},
    "Deep-200": {"t_parse": 265, "t_graph": 116, "t_comp": 9, "t_shapes_indb": 6641, "t_shapes_inmem": 447},
    "Deep-300": {"t_parse": 234, "t_graph": 100, "t_comp": 11, "t_shapes_indb": 6641, "t_shapes_inmem": 500},
    "LUBM-1": {"t_parse": 84, "t_graph": 10, "t_comp": 1, "t_shapes_indb": 221, "t_shapes_inmem": 2724},
    "LUBM-10": {"t_parse": 46, "t_graph": 10, "t_comp": 1, "t_shapes_indb": 830, "t_shapes_inmem": 10943},
    "LUBM-100": {"t_parse": 45, "t_graph": 11, "t_comp": 1, "t_shapes_indb": 6396, "t_shapes_inmem": 70131},
    "LUBM-1K": {"t_parse": 43, "t_graph": 231, "t_comp": 80, "t_shapes_indb": 65578, "t_shapes_inmem": 854015},
    "STB-128": {"t_parse": 78, "t_graph": 18, "t_comp": 7, "t_shapes_indb": 4991, "t_shapes_inmem": 7379},
    "ONT-256": {"t_parse": 179, "t_graph": 35, "t_comp": 8, "t_shapes_indb": 11726, "t_shapes_inmem": 15761},
}


def paper_stats(name: str) -> ScenarioStats:
    """Return the Table 1 row for scenario *name* (raises ``KeyError`` when unknown)."""
    return PAPER_TABLE_1[name]


def scenario_names() -> Tuple[str, ...]:
    """Return the names of every scenario in Table 1, in the paper's order."""
    return tuple(PAPER_TABLE_1)
