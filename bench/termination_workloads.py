"""The termination-path workloads: ``sl_rules``, ``l_rules``, ``l_data``.

Operation = text in → verdict out: ``is_chase_finite_sl`` / ``is_chase_finite_l``
on the *text* of a generated rule program, so parsing is part of what is
timed (the paper's t-parse).  The traced pass re-runs the pipeline one
public call at a time — ``parse_rules``, ``find_shapes``,
``dynamic_simplification``, ``build_dependency_graph``,
``find_special_sccs``, ``supports`` — and reports how much of the checker's
own wall time those calls leave unattributed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core import Predicate, Schema, induced_database, parse_rules, serialize_rules
from repro.generators import generate_database, generate_tgds
from repro.graph import build_dependency_graph, find_special_sccs
from repro.graph.reachability import supports
from repro.obs import Clock
from repro.simplification import dynamic_simplification
from repro.storage import InDatabaseShapeFinder, InMemoryShapeFinder, PrefixView
from repro.termination import is_chase_finite_l, is_chase_finite_sl

from .workload import Traced, VerificationError, scaled

MIN_ARITY, MAX_ARITY = 1, 5


def fixed_schema(size: int) -> Schema:
    """*size* predicates with arities cycling 1..5.

    The arity profile decides how many shapes a relation can have, and so
    how far dynamic simplification blows a rule set up; drawing it from
    ``--seed`` would make two seeds two different workloads.  It is a frozen
    parameter instead, and the seed drives the rules and the tuples.
    """
    return Schema(
        Predicate(f"p{index}", MIN_ARITY + index % MAX_ARITY) for index in range(1, size + 1)
    )


@dataclass
class TerminationInputs:
    rules_text: str
    shape_source: object  # Database (SL) or PrefixView (L)
    expected: Tuple[bool, Dict[str, int]]
    units: int


def _check(inputs: TerminationInputs, report) -> List[str]:
    observed = (report.finite, report.statistics)
    if observed != inputs.expected:
        return [f"verdict/statistics {observed} differ from the reference {inputs.expected}"]
    return []


def _stage(clock: Clock, function, *args):
    started = clock.now()
    value = function(*args)
    return value, clock.now() - started


def _graph_layers(graph, build_s: float, special_sccs, sccs_s: float) -> Dict[str, float]:
    return {
        "graph.dependency_graph.build_s": build_s,
        "graph.dependency_graph.nodes": len(graph),
        "graph.dependency_graph.edges": graph.edge_count(),
        "graph.dependency_graph.special_edges": graph.special_edge_count(),
        "graph.tarjan.special_sccs_s": sccs_s,
        "graph.tarjan.special_sccs": len(special_sccs),
    }


def _parser_layers(rules_text: str, parse_s: float) -> Dict[str, float]:
    return {
        "core.parser.parse_rules_s": parse_s,
        "core.parser.parse_rules_bytes_per_s": len(rules_text.encode("utf-8")) / parse_s,
    }


def _attribution(check_s: float, stage_seconds: List[float]) -> Dict[str, float]:
    unattributed = check_s - sum(stage_seconds)
    return {
        "termination.check_s": check_s,
        "termination.unattributed_s": unattributed,
        "termination.unattributed_ratio": unattributed / check_s,
    }


class SimpleLinearRules:
    """``sl_rules``: IsChaseFinite[SL] on a large simple-linear rule set."""

    name = "sl_rules"
    unit = "rules"

    def params(self, scale: float) -> Dict[str, object]:
        return {
            "rules": scaled(6000, scale),
            "tclass": "SL",
            "schema_predicates": 200,
            "arity": [MIN_ARITY, MAX_ARITY],
            "database": "induced D_Sigma",
        }

    def setup(self, seed: int, scale: float) -> TerminationInputs:
        params = self.params(scale)
        size = int(params["schema_predicates"])
        tgds = generate_tgds(
            fixed_schema(size), size, MIN_ARITY, MAX_ARITY, int(params["rules"]), "SL", seed=seed
        )
        database = induced_database(tgds)
        reference = is_chase_finite_sl(database, tgds)
        return TerminationInputs(
            rules_text=serialize_rules(tgds),
            shape_source=database,
            expected=(reference.finite, reference.statistics),
            units=len(tgds),
        )

    def operate(self, inputs: TerminationInputs):
        return is_chase_finite_sl(inputs.shape_source, inputs.rules_text)

    check = staticmethod(_check)

    def trace(self, inputs: TerminationInputs, clock: Clock, warm_wall_s: float) -> Traced:
        database = inputs.shape_source
        report, check_s = _stage(clock, self.operate, inputs)
        tgds, parse_s = _stage(clock, parse_rules, inputs.rules_text)
        graph, build_s = _stage(clock, build_dependency_graph, tgds)
        special_sccs, sccs_s = _stage(clock, find_special_sccs, graph)
        # The generator never emits empty-frontier TGDs, so the checker's
        # support graph is the dependency graph itself.
        representatives = [scc.representative() for scc in special_sccs]
        _, supports_s = _stage(clock, supports, database, representatives, graph)
        layers = {
            **_parser_layers(inputs.rules_text, parse_s),
            **_graph_layers(graph, build_s, special_sccs, sccs_s),
            "graph.reachability.supports_s": supports_s,
            **_attribution(check_s, [parse_s, build_s, sccs_s, supports_s]),
        }
        problems = _check(inputs, report)
        # The independent engine: simplification blows 6000 rules up for ten
        # seconds and 200 MiB, so it runs here, once, and not in every set-up
        # (where it would also be what peak_rss_mb measures).
        linear = is_chase_finite_l(database, tgds)
        if linear.finite != report.finite:
            problems.append(
                f"IsChaseFinite[SL] says finite={report.finite} but IsChaseFinite[L] "
                f"says finite={linear.finite} on the same input"
            )
        return Traced(wall_s=check_s, layers=layers, problems=problems)


class LinearRules:
    """``l_rules`` / ``l_data``: IsChaseFinite[L] against a ``D*`` prefix view.

    The two instances are mirror images: many rules over a tiny database
    (simplification and graph work dominate) and few rules over a large one
    (FindShapes dominates).
    """

    def __init__(self, name: str, unit: str, rules: int, relations: int, rows: int, dsize: int):
        self.name = name
        self.unit = unit
        self._rules = rules
        self._relations = relations
        self._rows = rows
        self._dsize = dsize

    def params(self, scale: float) -> Dict[str, object]:
        by_rows = self.unit == "tuples"
        return {
            "rules": self._rules if by_rows else scaled(self._rules, scale),
            "tclass": "L",
            "relations": self._relations,
            "rows_per_relation": scaled(self._rows, scale) if by_rows else self._rows,
            "dsize": self._dsize,
            "arity": [MIN_ARITY, MAX_ARITY],
        }

    def setup(self, seed: int, scale: float) -> TerminationInputs:
        params = self.params(scale)
        relations, rows = int(params["relations"]), int(params["rows_per_relation"])
        schema = fixed_schema(relations)
        store = generate_database(
            relations, MIN_ARITY, MAX_ARITY, int(params["dsize"]), rows, seed=seed, schema=schema
        )
        tgds = generate_tgds(
            schema, relations, MIN_ARITY, MAX_ARITY, int(params["rules"]), "L", seed=seed
        )
        view = PrefixView(store, rows, predicates=tgds.schema())
        shapes = InMemoryShapeFinder(view).find_shapes()
        if InDatabaseShapeFinder(view).find_shapes() != shapes:
            raise VerificationError("InMemoryShapeFinder and InDatabaseShapeFinder disagree")
        reference = is_chase_finite_l(shapes, tgds)
        return TerminationInputs(
            rules_text=serialize_rules(tgds),
            shape_source=view,
            expected=(reference.finite, reference.statistics),
            units=view.total_rows() if self.unit == "tuples" else len(tgds),
        )

    def operate(self, inputs: TerminationInputs):
        return is_chase_finite_l(InMemoryShapeFinder(inputs.shape_source), inputs.rules_text)

    check = staticmethod(_check)

    def trace(self, inputs: TerminationInputs, clock: Clock, warm_wall_s: float) -> Traced:
        view = inputs.shape_source
        report, check_s = _stage(clock, self.operate, inputs)
        tgds, parse_s = _stage(clock, parse_rules, inputs.rules_text)
        finder = InMemoryShapeFinder(view)
        shapes, shapes_s = _stage(clock, finder.find_shapes)
        simplification, simplify_s = _stage(clock, dynamic_simplification, shapes, tgds)
        graph, build_s = _stage(clock, build_dependency_graph, simplification.tgds)
        special_sccs, sccs_s = _stage(clock, find_special_sccs, graph)
        # The paper's Figure 3-vs-4 comparison, off the critical path.
        in_database = InDatabaseShapeFinder(view)
        _, indb_s = _stage(clock, in_database.find_shapes)
        layers = {
            **_parser_layers(inputs.rules_text, parse_s),
            "storage.shape_finder.find_shapes_s": shapes_s,
            "storage.shape_finder.rows_scanned": finder.stats.rows_scanned,
            "storage.shape_finder.rows_per_s": finder.stats.rows_scanned / shapes_s,
            "storage.shape_finder.shapes_found": finder.stats.shapes_found,
            "storage.shape_finder.indb_find_shapes_s": indb_s,
            "storage.shape_finder.indb_queries_issued": in_database.stats.queries_issued,
            "storage.shape_finder.indb_relaxed_queries": in_database.stats.relaxed_queries_issued,
            "simplification.dynamic.simplify_s": simplify_s,
            "simplification.dynamic.simplified_rules": len(simplification.tgds),
            "simplification.dynamic.derived_shapes": len(simplification.derived_shapes),
            "simplification.dynamic.iterations": simplification.iterations,
            **_graph_layers(graph, build_s, special_sccs, sccs_s),
            **_attribution(check_s, [parse_s, shapes_s, simplify_s, build_s, sccs_s]),
        }
        return Traced(wall_s=check_s, layers=layers, problems=_check(inputs, report))
