"""The two ``FindShapes`` implementations (Section 5.4).

``FindShapes`` computes the set of shapes of the atoms of a database; it is
the db-dependent component of ``IsChaseFinite[L]`` and the dominant cost in
the paper's end-to-end measurements (Table 2).  Two implementations are
provided, mirroring the paper:

* :class:`InMemoryShapeFinder` — load every relation (in chunks when asked)
  and compute the shape of each tuple;
* :class:`InDatabaseShapeFinder` — never load tuples; instead, issue one
  Boolean existence query per candidate shape, ordered from general to
  specific and pruned Apriori-style using relaxed (equality-only) queries.

A third implementation serves the prefix-view sweeps of Section 8.1:

* :class:`DeltaShapeFinder` — incremental ``FindShapes`` over the growing
  prefix views of one store.  It scans each base relation exactly once,
  remembers the first row at which every shape appears, and answers any
  prefix view from that index — view ``i+1`` only pays for the rows beyond
  view ``i``'s offset.

All classes expose ``find_shapes()`` and can be handed directly to
:func:`repro.termination.linear.is_chase_finite_l`.  They also count their
work (rows scanned, queries issued) so the experiment harness can report
where the time goes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from ..chase.bounds import bell_number
from ..core.predicates import Predicate
from ..exceptions import StorageError
from ..simplification.shapes import Shape, first_rows_of_patterns, identifier_tuple, row_patterns
from .queries import shape_exists


@dataclass
class ShapeFinderStats:
    """Work counters shared by the ``FindShapes`` implementations.

    ``queries_issued`` counts *every* query sent to the store — relaxed
    (equality-only) pruning queries included; ``relaxed_queries_issued`` is
    the relaxed subset.  Counters describe the most recent ``find_shapes()``
    call: the finders reset them (in place, so held references stay valid)
    at the start of each run.
    """

    rows_scanned: int = 0
    queries_issued: int = 0
    relaxed_queries_issued: int = 0
    shapes_found: int = 0
    shapes_pruned: int = 0

    def reset(self) -> None:
        """Zero every counter in place."""
        self.rows_scanned = 0
        self.queries_issued = 0
        self.relaxed_queries_issued = 0
        self.shapes_found = 0
        self.shapes_pruned = 0


class _BaseShapeFinder:
    """Shared plumbing: relation iteration over a store or a prefix view."""

    def __init__(self, store: Any):
        self._store = store
        self.stats = ShapeFinderStats()

    def _relations(self) -> List[Any]:
        return self._store.relations()

    def find_shapes(self) -> Set[Shape]:
        """Compute the set of shapes of the database (implemented by subclasses)."""
        raise NotImplementedError


class InMemoryShapeFinder(_BaseShapeFinder):
    """Scan every relation and compute the shape of each tuple.

    Parameters
    ----------
    store:
        A :class:`~repro.storage.database.RelationalDatabase` or a
        :class:`~repro.storage.views.PrefixView`.
    chunk_size:
        When given, relations are processed in chunks of this many tuples —
        the paper's answer to relations that do not fit in main memory.
    """

    def __init__(self, store: Any, chunk_size: Optional[int] = None):
        super().__init__(store)
        if chunk_size is not None and chunk_size <= 0:
            raise StorageError("chunk_size must be positive")
        self._chunk_size = chunk_size

    def find_shapes(self) -> Set[Shape]:
        """Return the set of shapes of every tuple in the store."""
        self.stats.reset()
        shapes: Set[Shape] = set()
        for relation in self._relations():
            predicate = relation.predicate
            if predicate.arity <= 1:
                # One shape, present iff the relation is non-empty: the first row tells.
                chunks = [relation.rows(limit=1)]
            elif self._chunk_size is None:
                chunks = [relation.rows()]
            else:
                chunks = relation.chunks(self._chunk_size)
            self.stats.rows_scanned += len(relation)
            patterns = set().union(*map(row_patterns, chunks))
            shapes |= {Shape(predicate.name, identifiers) for identifiers in patterns}
        self.stats.shapes_found = len(shapes)
        return shapes


class InDatabaseShapeFinder(_BaseShapeFinder):
    """Issue one existence query per candidate shape, with Apriori pruning.

    For each relation, the finder proceeds from general to specific as in
    Section 5.4:

    1. it first issues the *relaxed* (equality-only) queries of the most
       general non-trivial shapes — one per attribute pair — to learn which
       pairs of columns are ever equal;
    2. candidate shapes are then enumerated only over partitions whose
       blocks consist of pairwise-mergeable attributes (any other shape has
       a failed relaxed query among its generalisations and is pruned, the
       Apriori argument);
    3. every surviving candidate with a non-trivial equality set gets its
       relaxed query and, if that succeeds, the exact query (equalities and
       disequalities).

    The pair-level pruning is what keeps the number of issued queries small
    for high-arity relations — exactly the effect the paper relies on when it
    argues that most of the Bell-many per-shape queries are never run.
    """

    def _shape_exists(self, relation: Any, shape: Shape, relaxed: bool) -> bool:
        """Evaluate one (relaxed) shape existence query against *relation*.

        The single point where a query touches data: this base implementation
        scans the relation's rows in-process, and the SQL backend
        (:class:`repro.storage.sqlbackend.shapes.SqliteShapeFinder`) overrides
        it to execute the rendered ``EXISTS`` query inside the database —
        the enumeration and Apriori pruning above it are shared verbatim.
        """
        return shape_exists(relation.rows(), shape, relaxed=relaxed)

    def _mergeable_pairs(self, relation: Any) -> Set[tuple]:
        """Relaxed pair queries: the attribute pairs that are equal in some tuple."""
        arity = relation.predicate.arity
        mergeable: Set[tuple] = set()
        for i in range(1, arity + 1):
            for j in range(i + 1, arity + 1):
                # The most general shape forcing only positions i and j equal.
                merged = [i if position == j else position for position in range(1, arity + 1)]
                pair_shape = Shape(relation.predicate.name, identifier_tuple(merged))
                self.stats.queries_issued += 1
                self.stats.relaxed_queries_issued += 1
                if self._shape_exists(relation, pair_shape, relaxed=True):
                    mergeable.add((i, j))
        return mergeable

    def _candidates(self, predicate: Predicate, mergeable: Set[tuple]) -> List[Shape]:
        """Enumerate the shapes whose blocks are cliques of mergeable attribute pairs."""
        arity = predicate.arity

        def compatible(block: List[int], position: int) -> bool:
            return all((member, position) in mergeable for member in block)

        candidates: List[Shape] = []

        def extend(position: int, blocks: List[List[int]]) -> None:
            if position > arity:
                identifiers = [0] * arity
                for block_index, block in enumerate(blocks, start=1):
                    for member in block:
                        identifiers[member - 1] = block_index
                candidates.append(Shape(predicate.name, tuple(identifiers)))
                return
            for block in blocks:
                if compatible(block, position):
                    block.append(position)
                    extend(position + 1, blocks)
                    block.pop()
            blocks.append([position])
            extend(position + 1, blocks)
            blocks.pop()

        extend(1, [])
        candidates.sort(key=lambda shape: (len(shape.equal_position_pairs()), shape.identifiers))
        return candidates

    def find_shapes(self) -> Set[Shape]:
        """Return the set of shapes present in the store, one query batch per relation."""
        self.stats.reset()
        shapes: Set[Shape] = set()
        for relation in self._relations():
            predicate = relation.predicate
            # Arity 0 and 1 have no attribute pair and one candidate, (()) or ((1,)):
            # a single exact query, which succeeds iff the relation holds a tuple.
            mergeable = self._mergeable_pairs(relation)
            candidates = self._candidates(predicate, mergeable)
            # Shapes outside the mergeable-pair lattice were pruned without
            # ever being enumerated; account for them in the statistics.
            self.stats.shapes_pruned += bell_number(predicate.arity) - len(candidates)
            failed_equality_sets: List[frozenset] = []
            for shape in candidates:
                forced_equalities = frozenset(shape.equal_position_pairs())
                if any(forced_equalities >= failed for failed in failed_equality_sets):
                    self.stats.shapes_pruned += 1
                    continue
                if forced_equalities:
                    self.stats.queries_issued += 1
                    self.stats.relaxed_queries_issued += 1
                    if not self._shape_exists(relation, shape, relaxed=True):
                        failed_equality_sets.append(forced_equalities)
                        self.stats.shapes_pruned += 1
                        continue
                self.stats.queries_issued += 1
                if self._shape_exists(relation, shape, relaxed=False):
                    shapes.add(shape)
        self.stats.shapes_found = len(shapes)
        return shapes


class DeltaShapeFinder:
    """Incremental ``FindShapes`` across the prefix views of one store.

    The paper's linear experiments re-run ``FindShapes`` from scratch on
    every ``D*`` view even though view ``i+1`` extends view ``i`` tuple for
    tuple.  This finder exploits the prefix structure: per base relation it
    maintains the scan offset reached so far and, for every shape observed,
    the (1-based) row count at which the shape first appeared.  Computing the
    shapes of a larger view then scans only the delta rows, and the shapes of
    *any* already-scanned prefix — larger or smaller, restricted to any
    predicate subset — are answered from the first-seen index without
    touching tuples again.

    The finder is bound to one base store; every view handed to
    :meth:`shapes_for` must wrap that store.  ``stats.rows_scanned`` counts
    only the delta rows of the most recent call.
    """

    def __init__(self, store: Any):
        self._store = store
        self._scanned: Dict[str, int] = {}
        self._first_seen: Dict[str, Dict[Tuple[int, ...], Tuple[int, Shape]]] = {}
        self.stats = ShapeFinderStats()

    def _ensure_scanned(self, relation: Any, target: int) -> None:
        """Extend the scan of *relation* (a base relation) up to *target* rows."""
        name = relation.predicate.name
        scanned = self._scanned.get(name, 0)
        if target <= scanned:
            return
        first_seen = self._first_seen.setdefault(name, {})
        delta = first_rows_of_patterns(relation.rows(limit=target, start=scanned), scanned)
        for identifiers, count in delta.items():
            if identifiers not in first_seen:
                first_seen[identifiers] = (count, Shape(name, identifiers))
        self.stats.rows_scanned += target - scanned
        self._scanned[name] = target

    def shapes_for(self, view: Any = None) -> Set[Shape]:
        """Return the shapes of *view* (a prefix view of the base store).

        ``view=None`` computes the shapes of the whole store.  The view's
        predicate restriction (``sch(Σ)``) is honoured: hidden relations
        contribute nothing, but their scan state is retained so other rule
        sets sharing the finder still benefit.
        """
        self.stats.reset()
        if view is None:
            limit = None
            names = self._store.relation_names()
        else:
            base = getattr(view, "store", None)
            if base is not self._store:
                raise ValueError("view does not wrap the store this finder is bound to")
            limit = view.tuples_per_relation
            names = view.relation_names()
        shapes: Set[Shape] = set()
        for name in names:
            relation = self._store.relation(name)
            target = len(relation) if limit is None else min(limit, len(relation))
            self._ensure_scanned(relation, target)
            first_seen = self._first_seen.get(name, {})
            shapes.update(shape for first, shape in first_seen.values() if first <= target)
        self.stats.shapes_found = len(shapes)
        return shapes

    def find_shapes(self) -> Set[Shape]:
        """Whole-store ``FindShapes`` (the shared finder interface)."""
        return self.shapes_for(None)

