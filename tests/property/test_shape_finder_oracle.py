"""The FindShapes oracle: every finder against the per-row definition.

``repro.simplification.shapes.row_patterns`` (and its first-seen
variant) is the one row scan under the in-process finders; the per-row
definition ``{Shape(name, id(t̄))}`` it replaced is the reference here.  Over
hypothesis-drawn stores — arities 0 to 5, empty relations, few values repeated
often, ``_:`` null-marked and ``_e:``-escaped values, names differing only in
case — this suite holds that

* the kernel, ``InMemoryShapeFinder``,
  ``InDatabaseShapeFinder``, ``SqliteShapeFinder`` and ``shapes_of_database``
  of the decoded atoms all return the reference set, on the store and on its
  prefix views, and ``rows_scanned`` is the visible row count;
* ``DeltaShapeFinder`` answers a random ladder of views (any order, predicate
  restrictions, rows appended between calls) with the reference set, scans
  delta rows only, and ends with the reference's first-seen row counts.

Run with ``HYPOTHESIS_PROFILE=ci`` for the pinned 200-example sweep.
"""

from hypothesis import given, note
from hypothesis import strategies as st

from repro.core.instances import Instance
from repro.core.predicates import Predicate
from repro.simplification.shapes import (
    Shape,
    first_rows_of_patterns,
    identifier_tuple,
    row_patterns,
    shapes_of_database,
)
from repro.storage import (
    DeltaShapeFinder,
    InDatabaseShapeFinder,
    InMemoryShapeFinder,
    PrefixView,
    RelationalDatabase,
)
from repro.storage.relation import ESCAPE_MARKER, NULL_MARKER
from repro.storage.sqlbackend import SqliteAtomStore, SqliteShapeFinder

#: Few values, so rows repeat them; a null and the constants that would collide with it.
VALUES = ("a", "b", "n1", f"{NULL_MARKER}n1", f"{NULL_MARKER}n2", f"{ESCAPE_MARKER}{NULL_MARKER}n1")
NAMES = ("R", "r", "S", "Tq")


def _rows(arity: int, max_size: int = 10):
    return st.lists(st.tuples(*[st.sampled_from(VALUES)] * arity), max_size=max_size)


@st.composite
def row_stores(draw):
    """``{name: (arity, rows)}`` — each name at one arity, some relations empty."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True))
    content = {}
    for name in names:
        arity = draw(st.integers(0, 5))
        content[name] = (arity, draw(_rows(arity)))
    return content


def _relational(content) -> RelationalDatabase:
    store = RelationalDatabase()
    for name, (arity, rows) in content.items():
        store.create_relation(Predicate(name, arity)).insert_many(rows)
    return store


def _reference(content, limit=None, names=None):
    return {
        Shape(name, identifier_tuple(row))
        for name, (_, rows) in content.items()
        if names is None or name in names
        for row in rows[:limit]
    }


def _visible_rows(content, limit=None, names=None) -> int:
    return sum(
        len(rows[:limit]) for name, (_, rows) in content.items() if names is None or name in names
    )


def _decoded(store) -> Instance:
    """The atoms of a store or view, nulls included (``to_database`` takes facts only)."""
    return Instance(atom for relation in store.relations() for atom in relation.atoms())


@given(_rows(4, max_size=30), st.integers(0, 50))
def test_the_kernel_is_the_per_row_definition(rows, start):
    assert row_patterns(rows) == {identifier_tuple(row) for row in rows}
    assert row_patterns(iter(rows)) == row_patterns(rows)
    expected = {}
    for count, row in enumerate(rows, start + 1):
        expected.setdefault(identifier_tuple(row), count)
    assert first_rows_of_patterns(rows, start) == expected
    assert set(first_rows_of_patterns(iter(rows))) == row_patterns(rows)


@given(row_stores(), st.integers(0, 11))
def test_every_finder_returns_the_reference_set(content, limit):
    store = _relational(content)
    for source, expected, visible in (
        (store, _reference(content), _visible_rows(content)),
        (PrefixView(store, limit), _reference(content, limit), _visible_rows(content, limit)),
    ):
        finder = InMemoryShapeFinder(source)
        assert finder.find_shapes() == expected
        assert finder.stats.rows_scanned == visible
        assert finder.stats.shapes_found == len(expected)
        assert InDatabaseShapeFinder(source).find_shapes() == expected
        assert DeltaShapeFinder(store).shapes_for(None if source is store else source) == expected
        assert shapes_of_database(_decoded(source)) == expected
        if not any(value.startswith(NULL_MARKER) for _, rows in content.values()
                   for row in rows for value in row):
            assert shapes_of_database(source.to_database()) == expected
    with SqliteAtomStore() as pushed:
        for relation in store.relations():
            pushed.create_relation(relation.predicate)
            pushed.add_rows(
                relation.predicate, [atom.terms for atom in relation.atoms()]
            )
        assert SqliteShapeFinder(pushed).find_shapes() == _reference(content)


@st.composite
def ladders(draw):
    """A store plus steps: a view ``(limit, names or None)`` or rows to append to a relation."""
    content = draw(row_stores())
    names = sorted(content)
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 3)):
            restriction = draw(st.none() | st.lists(st.sampled_from(names), unique=True))
            steps.append(("view", draw(st.integers(0, 14)), restriction))
        else:
            name = draw(st.sampled_from(names))
            steps.append(("append", name, draw(_rows(content[name][0], max_size=4))))
    return content, steps


@given(ladders())
def test_delta_finder_over_random_ladders(ladder):
    content, steps = ladder
    content = {name: (arity, list(rows)) for name, (arity, rows) in content.items()}
    store = _relational(content)
    finder = DeltaShapeFinder(store)
    scanned = dict.fromkeys(content, 0)
    for step in steps:
        note(step)
        if step[0] == "append":
            _, name, rows = step
            content[name][1].extend(rows)
            store.relation(name).insert_many(rows)
            continue
        _, limit, names = step
        view = PrefixView(store, limit, predicates=names)
        assert finder.shapes_for(view) == _reference(content, limit, names)
        delta = 0
        for name in content if names is None else names:
            target = min(limit, len(content[name][1]))
            delta += max(0, target - scanned[name])
            scanned[name] = max(scanned[name], target)
        assert finder.stats.rows_scanned == delta
    assert finder.find_shapes() == _reference(content)
    # The index now covers every row: each prefix is answered from it, so the
    # first-seen row counts are the reference's.
    for limit in range(max(len(rows) for _, rows in content.values()) + 2):
        assert finder.shapes_for(PrefixView(store, limit)) == _reference(content, limit)
        assert finder.stats.rows_scanned == 0
