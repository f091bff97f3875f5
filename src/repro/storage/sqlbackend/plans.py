"""Pushed-down trigger matching: TGD bodies compiled to SQLite joins.

The indexed trigger engine (:mod:`repro.chase.matching`) resolves a
:class:`~repro.chase.matching.JoinPlan` by looping in Python over
``atoms_matching`` index lookups.  Against a SQL store that means one query
per candidate extension — correct, but it leaves the join itself on the
Python side.  This module compiles the *whole* body join into one
parameterized SQL statement per (TGD, seed slot) and lets SQLite execute it:

* **initial round** — one ``SELECT`` joining every body slot enumerates
  every body homomorphism of a TGD in a single query;
* **delta rounds** — the classic semi-naive rewriting, expressed through the
  store's monotone ``seq`` column: the plan seeded at slot ``j`` constrains
  ``t_j.seq > :delta_start`` (the seed *is* a delta atom) and
  ``t_i.seq <= :delta_start`` for every slot ``i < j`` (earlier slots match
  only pre-delta atoms), so each new homomorphism is produced exactly once —
  the same ordering discipline as
  :class:`~repro.chase.matching.IndexedTriggerSource`, pushed into the
  database.

The compiled queries select one column per body variable (its first
occurrence), so each result row *is* a body homomorphism; repeated
variables and constants become intra-query equality conditions.  Decoding
reuses the ``_:`` null convention, so triggers built here are
atom-for-atom identical to the in-memory engines' — the conformance suite
holds the three strategies to byte-identical ``ChaseResult``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ...core.atoms import Atom
from ...core.terms import Constant, Term, Variable
from ...core.tgds import TGD
from ..relation import decode_value, encode_term
from .store import SqliteAtomStore, _quote, table_name


class CompiledBodyQuery:
    """One TGD body compiled to SQL for a given seed slot (or the full join).

    ``seed_slot=None`` compiles the initial-round query (no delta
    constraints); ``seed_slot=j`` compiles the semi-naive delta query seeded
    at slot ``j``.  Instances are built once per source and reused every
    round — only the ``:delta_start`` parameter changes.
    """

    __slots__ = ("tgd", "seed_slot", "sql", "parameters", "variables")

    def __init__(self, tgd: TGD, seed_slot: Optional[int]) -> None:
        self.tgd = tgd
        self.seed_slot = seed_slot
        select: List[str] = []
        tables: List[str] = []
        conditions: List[str] = []
        parameters: Dict[str, str] = {}
        variables: List[Variable] = []
        first_seen: Dict[Term, str] = {}
        for slot, pattern in enumerate(tgd.body):
            alias = f"t{slot}"
            tables.append(f"{_quote(table_name(pattern.predicate.name))} AS {alias}")
            for position, term in enumerate(pattern.terms):
                column = f"{alias}.c{position}"
                if isinstance(term, Constant):
                    parameter = f"p{len(parameters)}"
                    conditions.append(f"{column} = :{parameter}")
                    parameters[parameter] = encode_term(term)
                elif term in first_seen:
                    conditions.append(f"{column} = {first_seen[term]}")
                else:
                    first_seen[term] = column
                    variables.append(term)
                    select.append(f"{column} AS v{len(variables) - 1}")
            if seed_slot is not None:
                if slot == seed_slot:
                    conditions.append(f"{alias}.seq > :delta_start")
                elif slot < seed_slot:
                    conditions.append(f"{alias}.seq <= :delta_start")
        # A body whose every position is a constant still needs a SELECT
        # column for the row to exist; SELECT 1 keeps the query well-formed.
        select_clause = ", ".join(select) if select else "1"
        where_clause = f" WHERE {' AND '.join(conditions)}" if conditions else ""
        self.sql = f"SELECT {select_clause} FROM {', '.join(tables)}{where_clause}"
        self.parameters = parameters
        self.variables = tuple(variables)

    def run(self, store: SqliteAtomStore, delta_start: Optional[int]) -> Iterator[Dict[Term, Term]]:
        """Execute the query and yield one body homomorphism per result row."""
        if not all(store.has_relation(atom.predicate) for atom in self.tgd.body):
            return  # an empty (never-created) relation joins to nothing
        named: Dict[str, object] = dict(self.parameters)
        if delta_start is not None:
            named["delta_start"] = delta_start
        # query() runs under the store's connection lock; executing on the
        # raw connection here would bypass the one-thread-in-SQLite
        # invariant (reprolint: lock-discipline).
        rows = store.query(self.sql, named, family="trigger-join")
        for row in rows:
            yield {
                variable: decode_value(row[index])
                for index, variable in enumerate(self.variables)
            }


class SqlTriggerSource:
    """The ``"sql"`` trigger strategy: body joins executed inside SQLite.

    Drop-in :class:`~repro.chase.matching.TriggerSource`: ``initial`` runs
    the full-join query of every TGD, ``delta`` runs one semi-naive query
    per (TGD, seed slot).  The delta watermark is derived from the store's
    insertion sequence: the engine adds exactly the round's new atoms
    between calls, so the delta rows are precisely those with
    ``seq > current_seq - len(new_atoms)``.

    Requires a :class:`SqliteAtomStore`; any other store raises
    ``ValueError`` (the in-memory backends use the ``"indexed"`` strategy).
    """

    def __init__(self, tgds: Sequence[TGD]) -> None:
        self.tgds = tuple(tgds)
        self._initial_queries = [
            CompiledBodyQuery(tgd, None) for tgd in self.tgds
        ]
        self._delta_queries: List[List[CompiledBodyQuery]] = [
            [CompiledBodyQuery(tgd, slot) for slot in range(len(tgd.body))]
            for tgd in self.tgds
        ]
        #: Sequence watermark snapshotted at each enumeration: the next
        #: delta is exactly the rows inserted since.  Derived by observation
        #: rather than from ``len(new_atoms)``, so bulk loads that skipped
        #: duplicate rows (leaving seq gaps) cannot skew the boundary.
        self._last_seq: Optional[int] = None

    @staticmethod
    def _check_store(store: object) -> SqliteAtomStore:
        if not isinstance(store, SqliteAtomStore):
            raise ValueError(
                "the 'sql' trigger strategy pushes joins into SQLite and "
                f"requires a SqliteAtomStore; got {type(store).__name__} "
                "(use strategy='indexed' for in-memory backends)"
            )
        return store

    def initial(self, store: object) -> Iterator[Tuple[int, Dict[Term, Term]]]:
        """Enumerate every match on the seed store (one SQL join per TGD)."""
        sql_store = self._check_store(store)
        # Snapshot eagerly (not inside the generator): the engine consumes
        # the iterator fully before adding the round's atoms, so everything
        # inserted after this point is the next call's delta.
        self._last_seq = sql_store.current_seq()

        def generate() -> Iterator[Tuple[int, Dict[Term, Term]]]:
            for index, query in enumerate(self._initial_queries):
                for mapping in query.run(sql_store, None):
                    yield index, mapping

        return generate()

    def delta(
        self, store: object, new_atoms: Iterable[Atom]
    ) -> Iterator[Tuple[int, Dict[Term, Term]]]:
        """Enumerate the matches created by the previous round's atoms.

        The delta boundary is the sequence watermark snapshotted at the
        previous enumeration — precisely the rows inserted since — so no
        atom set is shipped into the database.  *new_atoms* only steers the
        per-predicate dispatch: a query seeded at slot ``j`` runs only when
        the delta holds an atom over that slot's predicate, the same
        dispatch :class:`~repro.chase.matching.IndexedTriggerSource` does.
        """
        sql_store = self._check_store(store)
        # delta() without a prior initial() treats the whole store as delta
        # — a superset enumeration, harmless to the engines' key dedup.
        delta_start = self._last_seq if self._last_seq is not None else 0
        self._last_seq = sql_store.current_seq()
        delta_predicates = {atom.predicate for atom in new_atoms}

        def generate() -> Iterator[Tuple[int, Dict[Term, Term]]]:
            for index, queries in enumerate(self._delta_queries):
                for query in queries:
                    if query.tgd.body[query.seed_slot].predicate not in delta_predicates:
                        continue
                    for mapping in query.run(sql_store, delta_start):
                        yield index, mapping

        return generate()
