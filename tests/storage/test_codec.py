"""Unit and property tests for the binary codec."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Char, GemClass, GemObject, PrimitiveMethod, Ref, Symbol
from repro.errors import CodecError
from repro.storage import (
    decode_object,
    decode_object_full,
    decode_root,
    encode_object,
    encode_root,
)
from repro.storage.codec import (
    ContentsEntry,
    Reader,
    Writer,
    decode_contents,
    decode_value,
    encode_contents,
    encode_appends,
    encode_value,
)


def roundtrip_value(value):
    writer = Writer()
    encode_value(writer, value)
    return decode_value(Reader(writer.getvalue()))


class TestValues:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, 1, -1, 2**40, -(2**40), 0.0, 3.5, -1e300,
         "", "hello", "unicodé ✓", Symbol("sel:ector:"), Char("a"), Ref(0), Ref(123456)],
    )
    def test_roundtrip(self, value):
        result = roundtrip_value(value)
        assert result == value
        assert type(result) is type(value)

    def test_bool_not_confused_with_int(self):
        assert roundtrip_value(True) is True
        assert roundtrip_value(1) == 1
        assert not isinstance(roundtrip_value(1), bool)

    def test_symbol_not_confused_with_string(self):
        assert isinstance(roundtrip_value(Symbol("x")), Symbol)
        assert not isinstance(roundtrip_value("x"), Symbol)

    def test_unencodable_rejected(self):
        with pytest.raises(CodecError):
            encode_value(Writer(), object())

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError):
            decode_value(Reader(b"\xff"))

    def test_truncated_data_rejected(self):
        writer = Writer()
        encode_value(writer, "hello")
        with pytest.raises(CodecError):
            decode_value(Reader(writer.getvalue()[:-2]))


class TestVarints:
    @pytest.mark.parametrize("n", [0, 1, 127, 128, 300, 2**32, 2**60])
    def test_uvarint_roundtrip(self, n):
        writer = Writer()
        writer.uvarint(n)
        assert Reader(writer.getvalue()).uvarint() == n

    def test_negative_uvarint_rejected(self):
        with pytest.raises(CodecError):
            Writer().uvarint(-1)

    @pytest.mark.parametrize("n", [0, -1, 1, -(2**40), 2**40])
    def test_svarint_roundtrip(self, n):
        writer = Writer()
        writer.svarint(n)
        assert Reader(writer.getvalue()).svarint() == n

    def test_small_values_are_one_byte(self):
        writer = Writer()
        writer.uvarint(7)
        assert len(writer.getvalue()) == 1

    def test_overlong_varint_rejected(self):
        with pytest.raises(CodecError):
            Reader(b"\x80" * 11).uvarint()


class TestObjects:
    def test_plain_object_roundtrip(self):
        obj = GemObject(oid=42, class_oid=7, segment_id=3, created_at=5)
        obj.bind("name", "Ellen", time=5)
        obj.bind("salary", 24650, time=5)
        obj.bind("salary", 30000, time=9)
        obj.bind("dept", Ref(99), time=5)
        back = decode_object(encode_object(obj))
        assert back.oid == 42
        assert back.class_oid == 7
        assert back.segment_id == 3
        assert back.created_at == 5
        assert back.value("name") == "Ellen"
        assert back.value_at("salary", 5) == 24650
        assert back.value("salary") == 30000
        assert back.value("dept") == Ref(99)
        assert list(back.history_of("salary")) == [(5, 24650), (9, 30000)]

    def test_empty_object(self):
        obj = GemObject(oid=1, class_oid=2)
        back = decode_object(encode_object(obj))
        assert back.elements == {}

    def test_nil_bindings_survive(self):
        obj = GemObject(oid=1, class_oid=2)
        obj.bind("gone", Ref(5), time=3)
        obj.unbind("gone", time=8)
        back = decode_object(encode_object(obj))
        assert back.value("gone") is None
        assert back.value_at("gone", 5) == Ref(5)

    def test_integer_element_names(self):
        obj = GemObject(oid=1, class_oid=2)
        obj.bind(1, "a", time=1)
        obj.bind(2, "b", time=1)
        back = decode_object(encode_object(obj))
        assert back.value(1) == "a"

    def test_element_order_preserved(self):
        obj = GemObject(oid=1, class_oid=2)
        for name in ("z", "a", "m"):
            obj.bind(name, name, time=1)
        back = decode_object(encode_object(obj))
        assert list(back.elements) == ["z", "a", "m"]

    def test_garbage_rejected(self):
        with pytest.raises(CodecError):
            decode_object(b"XXnot a record")


class _SourcedMethod(PrimitiveMethod):
    """A primitive carrying source text, like a compiled OPAL method."""

    def __init__(self, selector, source):
        super().__init__(selector, lambda m, r: None)
        self.source = source


class TestClassRecords:
    def make_class(self):
        cls = GemClass(
            oid=10, class_oid=2, name="Employee", superclass_oid=1,
            instvar_names=("name", "salary"), segment_id=1, created_at=3,
        )
        cls.define_method(_SourcedMethod("raise:", "raise: amount\n ^amount"))
        cls.define_primitive("name", lambda m, r: None)  # no source: not stored
        cls.define_class_method(_SourcedMethod("new", "new\n ^super new"))
        cls.bind("comment", "people", time=3)
        return cls

    def test_structure_roundtrip(self):
        back = decode_object(encode_object(self.make_class()))
        assert isinstance(back, GemClass)
        assert back.name == "Employee"
        assert back.superclass_oid == 1
        assert back.instvar_names == ("name", "salary")
        assert back.value("comment") == "people"

    def test_root_superclass_roundtrip(self):
        cls = GemClass(oid=1, class_oid=2, name="Object", superclass_oid=None)
        back = decode_object(encode_object(cls))
        assert back.superclass_oid is None

    def test_method_sources_recovered(self):
        _, sources = decode_object_full(encode_object(self.make_class()))
        assert ("instance", "raise:", "raise: amount\n ^amount") in sources
        assert ("class", "new", "new\n ^super new") in sources
        assert all(selector != "name" for _, selector, _ in sources)

    def test_plain_object_has_no_sources(self):
        _, sources = decode_object_full(encode_object(GemObject(1, 2)))
        assert sources == []


class TestRoots:
    def test_roundtrip(self):
        fields = {
            "epoch": 7, "last_tx_time": 123, "next_oid": 5000,
            "alias_counter": 12, "contents_tracks": [15, 16],
        }
        assert decode_root(encode_root(fields)) == fields

    def test_empty_track_lists(self):
        fields = {
            "epoch": 1, "last_tx_time": 1, "next_oid": 1, "alias_counter": 0,
            "contents_tracks": [],
        }
        assert decode_root(encode_root(fields)) == fields

    def test_bad_magic(self):
        with pytest.raises(CodecError):
            decode_root(b"XXXX....")

    def test_a_gsr3_root_decodes_to_its_blob_lists(self):
        lists = {
            "object_table_tracks": [5, 9], "allocation_tracks": [11],
            "catalog_tracks": [13, 14], "note_tracks": [15],
        }
        writer = Writer()
        writer.raw(b"GSR3")
        for counter in (7, 123, 5000, 12):
            writer.uvarint(counter)
        for tracks in lists.values():
            writer.uvarint(len(tracks))
            for track in tracks:
                writer.uvarint(track)
        assert decode_root(writer.getvalue()) == {
            "epoch": 7, "last_tx_time": 123, "next_oid": 5000,
            "alias_counter": 12, **lists,
        }

    def test_a_gsr3_reader_refuses_a_gsr4_root(self):
        # the GSR3 grammar on these bytes wants four lists, and finds one
        payload = encode_root({"epoch": 3, "contents_tracks": [40, 41, 42]})
        assert payload[:4] == b"GSR4"
        with pytest.raises(CodecError):
            decode_root(b"GSR3" + payload[4:])

    def test_catalog_blob_roundtrip(self):
        from repro.storage.codec import decode_catalog, encode_catalog

        catalog = {"world": 2048, "class:Object": 1, "class:Integer": 8}
        assert decode_catalog(encode_catalog(catalog)) == catalog
        assert decode_catalog(encode_catalog({})) == {}


class TestContents:
    def test_roundtrip_leaves_self_entries_without_tracks(self):
        older = ContentsEntry((9, 10), 4, 30)
        directory = {"catalog": older}
        record = encode_contents(directory, {3: b"page three", "note": b"nn"})
        assert directory == {
            "catalog": older,
            3: ContentsEntry((), 0, 10),
            "note": ContentsEntry((), 10, 2),
        }
        assert decode_contents(record) == (directory, b"page threenn")

    def test_every_truncation_is_refused_or_runs_a_section_past_the_body(self):
        record = encode_contents({"catalog": ContentsEntry((9,), 0, 5)}, {0: b"x" * 20})
        for length in range(len(record)):
            try:
                directory, body = decode_contents(record[:length])
            except CodecError:
                continue
            assert directory[0].offset + directory[0].length > len(body)

    def test_out_of_order_sections_are_refused(self):
        writer = Writer()
        writer.raw(b"GC")
        writer.uvarint(2)
        for code in (3, 2):
            for value in (code, 0, 0, 0):
                writer.uvarint(value)
        with pytest.raises(CodecError):
            decode_contents(writer.getvalue())


# -- property-based: any storable object round-trips ------------------------

immediates = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False), st.text(max_size=20),
    st.builds(Symbol, st.text(max_size=10)),
    st.builds(Char, st.characters()),
)
element_values = st.one_of(immediates, st.builds(Ref, st.integers(0, 2**40)))
element_names = st.one_of(
    st.text(min_size=1, max_size=12),
    st.integers(min_value=-1000, max_value=10**6),
    st.builds(Symbol, st.text(min_size=1, max_size=8)),
)


@st.composite
def gem_objects(draw):
    obj = GemObject(
        oid=draw(st.integers(0, 2**40)),
        class_oid=draw(st.integers(0, 2**20)),
        segment_id=draw(st.integers(0, 100)),
        created_at=draw(st.integers(0, 1000)),
    )
    for name in draw(st.lists(element_names, max_size=8, unique=True)):
        times = sorted(draw(st.lists(st.integers(0, 500), min_size=1, max_size=5, unique=True)))
        for t in times:
            obj.bind(name, draw(element_values), time=t)
    return obj


@given(gem_objects())
def test_object_roundtrip_property(obj):
    back = decode_object(encode_object(obj))
    assert back.oid == obj.oid
    assert back.class_oid == obj.class_oid
    assert set(back.elements) == set(obj.elements)
    for name, table in obj.elements.items():
        assert list(back.elements[name].history()) == list(table.history())


@st.composite
def records_with_tails(draw):
    """An object record with one to three commits' appended associations."""
    record = encode_object(draw(gem_objects()))
    time = 501  # after every time gem_objects binds at
    for _ in range(draw(st.integers(1, 3))):
        names = draw(st.lists(element_names, min_size=1, max_size=3, unique=True))
        record += encode_appends([(name, draw(element_values)) for name in names], time)
        time += draw(st.integers(1, 50))
    return record


def damaged(record: bytes):
    """Every truncation and every single-bit flip of *record*."""
    for end in range(len(record)):
        yield record[:end]
    for index, byte in enumerate(record):
        for bit in range(8):
            yield record[:index] + bytes([byte ^ (1 << bit)]) + record[index + 1:]


@settings(max_examples=30)
@given(records_with_tails())
def test_a_damaged_record_decodes_or_raises_codec_error(record):
    """A flipped time delta, in a base table or in the appended tail, can
    repeat a time; that is a corrupt record, never a ``TimeTravelError``."""
    decode_object_full(record)
    for data in damaged(record):
        try:
            decode_object_full(data)
        except CodecError:
            pass
