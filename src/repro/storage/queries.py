"""Shape existence queries (the in-database ``FindShapes`` query layer).

The paper's in-database ``FindShapes`` translates every candidate shape into
a Boolean SQL query of the form::

    SELECT CASE WHEN EXISTS
      (SELECT * FROM R WHERE <equality conditions> AND <disequality conditions>)
    THEN 1 ELSE 0 END

For the shape ``R[1,1,2]`` the conditions are ``a1 = a2 AND a2 != a3`` (plus
``a1 != a3``, implied).  A *relaxed* query drops the disequalities and is
used for Apriori-style pruning: if no tuple satisfies even the equalities,
then no shape refining those equalities can exist either.

This module implements the same two query forms against the storage
substrate.  :func:`shape_query_sql` also renders the equivalent SQL text so
that documentation, logs, and tests can show exactly what the paper would
have sent to PostgreSQL.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from ..simplification.shapes import Shape, first_occurrence_keys
from .relation import Row


def equality_condition_pairs(shape: Shape) -> List[Tuple[int, int]]:
    """Return the 1-based attribute pairs forced equal by *shape* (i < j)."""
    return sorted(shape.equal_position_pairs())


def disequality_condition_pairs(shape: Shape) -> List[Tuple[int, int]]:
    """Return the 1-based attribute pairs forced distinct by *shape* (i < j)."""
    pairs = []
    ids = shape.identifiers
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if ids[i] != ids[j]:
                pairs.append((i + 1, j + 1))
    return pairs


def row_matches_shape(row: Sequence[str], shape: Shape, relaxed: bool = False) -> bool:
    """Evaluate the (relaxed) shape query against a single tuple.

    ``relaxed=True`` checks only the equality conditions — the paper's ``Q'``
    query used for pruning; ``relaxed=False`` checks the full query ``Q``
    (equalities and disequalities), i.e. whether the tuple has exactly this
    shape.
    """
    return shape_exists((tuple(row),), shape, relaxed=relaxed)


def shape_exists(rows: Iterable[Row], shape: Shape, relaxed: bool = False) -> bool:
    """Boolean existence query: does some tuple of *rows* satisfy the shape query?

    ``Q`` holds when the row's first-occurrence key is the shape's, ``Q'`` when
    every position equals the first of its block — both derived once per query.
    """
    (key,) = first_occurrence_keys((shape.identifiers,))
    if not relaxed:
        return key in first_occurrence_keys(rows)
    arity = len(key)
    equal = [(first, position) for position, first in enumerate(key) if first != position]
    for row in rows:
        if len(row) == arity:
            for first, position in equal:
                if row[first] != row[position]:
                    break
            else:
                return True
    return False


def shape_query_sql(shape: Shape, relaxed: bool = False, attribute_prefix: str = "a") -> str:
    """Render the SQL text of the (relaxed) shape query, as in Section 5.4.

    The rendering is informational: the storage substrate evaluates the query
    natively, but the SQL string documents the exact query the paper's
    implementation would run against PostgreSQL.
    """
    conditions: List[str] = []
    for i, j in equality_condition_pairs(shape):
        conditions.append(f"{attribute_prefix}{i}={attribute_prefix}{j}")
    if not relaxed:
        for i, j in disequality_condition_pairs(shape):
            conditions.append(f"{attribute_prefix}{i}!={attribute_prefix}{j}")
    where = " AND ".join(conditions) if conditions else "TRUE"
    return (
        "SELECT CASE WHEN EXISTS "
        f"(SELECT * FROM {shape.predicate_name} WHERE {where}) "
        "THEN 1 ELSE 0 END"
    )
