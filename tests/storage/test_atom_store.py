"""Tests for the AtomStore protocol and its two implementations."""

from repro.core.atoms import Atom
from repro.core.instances import Instance
from repro.core.parser import parse_database
from repro.core.predicates import Predicate
from repro.core.terms import Constant, Null
from repro.storage.atom_store import AtomStore
from repro.storage.database import RelationalDatabase
from repro.storage.relation import decode_value, encode_term, value_repr
from repro.storage.sqlbackend import SqliteAtomStore

R = Predicate("R", 2)


class TestProtocol:
    def test_both_stores_implement_the_protocol(self):
        assert isinstance(Instance(), AtomStore)
        assert isinstance(SqliteAtomStore(), AtomStore)
        # The FindShapes substrate is not a chase store.
        assert not isinstance(RelationalDatabase(), AtomStore)


class TestTermEncoding:
    def test_constants_round_trip(self):
        assert decode_value(encode_term(Constant("a"))) == Constant("a")

    def test_nulls_round_trip(self):
        assert decode_value(encode_term(Null("n42"))) == Null("n42")

    def test_null_encoding_is_distinct_from_constants(self):
        assert encode_term(Null("a")) != encode_term(Constant("a"))

    def test_marker_shaped_constants_round_trip(self):
        # A constant whose own name looks like an encoded null (or an
        # escaped value) must not mutate into a Null on decode.
        for name in ("_:x", "_e:x", "_:_e:x", "_e:_:x"):
            assert decode_value(encode_term(Constant(name))) == Constant(name)
            assert decode_value(encode_term(Null(name))) == Null(name)

    def test_value_repr_is_the_decoded_terms_repr(self):
        # Null keys render stored witness values without decoding them, so
        # the rendering must be repr(term) for every kind of stored value.
        names = ("a", "_:x", "_e:x", "_:_e:x", "_e:_:x", "it's", 'say "hi"', "back\\slash",
                 "new\nline", "naïve-Ω", "%s", "_", "_e")
        for name in names:
            for term in (Constant(name), Null(name)):
                assert value_repr(encode_term(term)) == repr(term)

    def test_marker_shaped_constants_survive_the_store(self):
        store = SqliteAtomStore()
        tricky = Atom(R, (Constant("_:x"), Null("x")))
        store.add_rows(R, [tricky.terms])
        assert store.has_row(R, tricky.terms)
        assert set(store.iter_atoms()) == {tricky}


class TestInstanceAtomStore:
    def test_rows_matching(self):
        instance = Instance(parse_database("R(a,b).\nR(a,c).\nR(b,c).").atoms())
        hits = set(instance.rows_matching(R, {0: Constant("a")}))
        assert hits == {
            (Constant("a"), Constant("b")),
            (Constant("a"), Constant("c")),
        }
        assert list(instance.rows_matching(R, {0: Constant("z")})) == []
        assert {Atom(R, row) for row in instance.rows_matching(R)} == set(instance.atoms())

    def test_index_is_maintained_incrementally_after_first_use(self):
        instance = Instance(parse_database("R(a,b).").atoms())
        assert len(list(instance.rows_matching(R, {0: Constant("a")}))) == 1
        # The index for R is now built; later adds must keep it fresh.
        instance.add(Atom(R, (Constant("a"), Constant("z"))))
        assert len(list(instance.rows_matching(R, {0: Constant("a")}))) == 2

    def test_predicate_cardinality(self):
        instance = Instance(parse_database("R(a,b).\nR(b,c).").atoms())
        assert instance.predicate_cardinality(R) == 2
        assert instance.predicate_cardinality(Predicate("S", 1)) == 0

    def test_term_index_is_incremental(self):
        instance = Instance()
        instance.add(Atom(R, (Constant("a"), Null("n1"))))
        assert instance.constants() == {Constant("a")}
        assert instance.nulls() == {Null("n1")}
        instance.add(Atom(R, (Constant("b"), Constant("a"))))
        assert instance.constants() == {Constant("a"), Constant("b")}
        assert instance.domain() == {Constant("a"), Constant("b"), Null("n1")}

    def test_copy_preserves_term_index_and_rebuilds_position_index(self):
        instance = Instance(parse_database("R(a,b).").atoms())
        list(instance.rows_matching(R, {0: Constant("a")}))
        clone = instance.copy()
        assert clone.constants() == instance.constants()
        clone.add(Atom(R, (Constant("a"), Constant("x"))))
        assert len(list(clone.rows_matching(R, {0: Constant("a")}))) == 2
        assert len(list(instance.rows_matching(R, {0: Constant("a")}))) == 1
