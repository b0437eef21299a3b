"""Binary codec for objects, values and storage metadata.

Section 6 describes the on-disk representation: "objects are broken into
elements and associations, which are organized ... under a header for the
object."  This module is the pure encoding half of that: it turns
:class:`~repro.core.objects.GemObject` instances (headers, elements,
association tables) and storage metadata (root records, object-table
pages) into byte strings and back.  Fragmenting records into tracks is the
Boxer's job; the codec knows nothing about tracks.

Values are tagged; integers and times use unsigned LEB128 varints (zigzag
for signed), so small values — the overwhelmingly common case — cost one
or two bytes.

Class objects are encoded with their structural definition (name,
superclass, instance-variable names) and the *source text* of their
OPAL-compiled methods; primitives are re-seeded by the kernel at open
time, and stored sources are recompiled lazily.  (The real GemStone
stored compiledMethod objects; storing source preserves behaviour while
keeping the codec independent of the bytecode set.)
"""

from __future__ import annotations

import struct
from typing import Any, Iterable, Mapping
from zlib import crc32

from ..core.classes import GemClass
from ..core.history import AssociationTable
from ..core.objects import GemObject
from ..core.values import Char, Ref, Symbol
from ..errors import ChecksumError, CodecError

# value tags
_TAG_NIL = 0
_TAG_TRUE = 1
_TAG_FALSE = 2
_TAG_INT = 3
_TAG_FLOAT = 4
_TAG_STR = 5
_TAG_SYMBOL = 6
_TAG_CHAR = 7
_TAG_REF = 8

# record kinds
RECORD_PLAIN = 0
RECORD_CLASS = 1

#: magic prefix of an encoded object record
RECORD_MAGIC = b"GO"


class Writer:
    """An append-only byte sink with varint and struct helpers."""

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def __len__(self) -> int:
        return len(self._buffer)

    def getvalue(self) -> bytes:
        """The accumulated bytes."""
        return bytes(self._buffer)

    def raw(self, data: bytes) -> None:
        """Append raw bytes."""
        self._buffer += data

    def uvarint(self, value: int) -> None:
        """Append an unsigned LEB128 varint."""
        if value < 0:
            raise CodecError(f"uvarint cannot encode negative {value}")
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                self._buffer.append(byte | 0x80)
            else:
                self._buffer.append(byte)
                return

    def svarint(self, value: int) -> None:
        """Append a signed (zigzag) varint."""
        self.uvarint((value << 1) ^ (value >> 63) if value < 0 else value << 1)

    def string(self, text: str) -> None:
        """Append a length-prefixed UTF-8 string."""
        data = text.encode("utf-8")
        self.uvarint(len(data))
        self.raw(data)

    def double(self, value: float) -> None:
        """Append an 8-byte IEEE double."""
        self.raw(struct.pack("<d", value))


_ONE_BYTE = [bytes((value,)) for value in range(0x80)]


def uvarint_bytes(value: int) -> bytes:
    """*value* as an unsigned LEB128 varint (what :meth:`Writer.uvarint`
    appends), for callers that build a frame by concatenation."""
    if value < 0x80:
        if value < 0:
            raise CodecError(f"uvarint cannot encode negative {value}")
        return _ONE_BYTE[value]
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def uvarint_at(data: bytes, pos: int) -> tuple[int, int]:
    """The unsigned LEB128 varint at ``data[pos]``: (value, next position)."""
    result = 0
    shift = 0
    try:
        while True:
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if byte < 0x80:
                return result, pos
            shift += 7
            if shift > 70:
                raise CodecError("varint too long")
    except IndexError:
        raise CodecError("unexpected end of encoded data") from None


class Reader:
    """A cursor over bytes, mirror of :class:`Writer`.

    ``raw``, ``byte``, ``uvarint`` and ``string`` each check their
    bounds once and index the buffer directly (a frame or a record is
    thousands of these); running off the end is always
    :class:`CodecError`, never ``IndexError``.
    """

    __slots__ = ("_data", "pos")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self._data = data
        self.pos = pos

    def remaining(self) -> int:
        """Bytes left after the cursor."""
        return len(self._data) - self.pos

    def raw(self, count: int) -> bytes:
        """Read *count* raw bytes."""
        pos = self.pos
        end = pos + count
        if end > len(self._data):
            raise CodecError("unexpected end of encoded data")
        self.pos = end
        return self._data[pos:end]

    def byte(self) -> int:
        """Read one byte as an int."""
        pos = self.pos
        try:
            value = self._data[pos]
        except IndexError:
            raise CodecError("unexpected end of encoded data") from None
        self.pos = pos + 1
        return value

    def uvarint(self) -> int:
        """Read an unsigned LEB128 varint."""
        pos = self.pos
        try:
            byte = self._data[pos]
        except IndexError:
            raise CodecError("unexpected end of encoded data") from None
        if byte < 0x80:  # one byte: the overwhelmingly common case
            self.pos = pos + 1
            return byte
        value, self.pos = uvarint_at(self._data, pos)
        return value

    def svarint(self) -> int:
        """Read a signed (zigzag) varint."""
        raw = self.uvarint()
        return (raw >> 1) ^ -(raw & 1)

    def string(self) -> str:
        """Read a length-prefixed UTF-8 string."""
        length = self.uvarint()
        data = self._data
        pos = self.pos
        end = pos + length
        if end > len(data):
            raise CodecError("unexpected end of encoded data")
        self.pos = end
        try:
            return str(data[pos:end], "utf-8")
        except UnicodeDecodeError as error:
            raise CodecError(f"string is not UTF-8: {error}") from None

    def double(self) -> float:
        """Read an 8-byte IEEE double."""
        return struct.unpack("<d", self.raw(8))[0]


# --------------------------------------------------------------------------
# values
# --------------------------------------------------------------------------

def encode_value(writer: Writer, value: Any) -> None:
    """Append a tagged value (immediate or Ref) to *writer*."""
    if value is None:
        writer.raw(bytes([_TAG_NIL]))
    elif value is True:
        writer.raw(bytes([_TAG_TRUE]))
    elif value is False:
        writer.raw(bytes([_TAG_FALSE]))
    elif isinstance(value, Symbol):
        writer.raw(bytes([_TAG_SYMBOL]))
        writer.string(str(value))
    elif isinstance(value, int):
        writer.raw(bytes([_TAG_INT]))
        writer.svarint(value)
    elif isinstance(value, float):
        writer.raw(bytes([_TAG_FLOAT]))
        writer.double(value)
    elif isinstance(value, str):
        writer.raw(bytes([_TAG_STR]))
        writer.string(value)
    elif isinstance(value, Char):
        writer.raw(bytes([_TAG_CHAR]))
        writer.uvarint(value.codepoint)
    elif isinstance(value, Ref):
        writer.raw(bytes([_TAG_REF]))
        writer.uvarint(value.oid)
    else:
        raise CodecError(f"cannot encode {type(value).__name__} value {value!r}")


def decode_value(reader: Reader) -> Any:
    """Read one tagged value from *reader*."""
    tag = reader.byte()
    if tag == _TAG_NIL:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_INT:
        return reader.svarint()
    if tag == _TAG_FLOAT:
        return reader.double()
    if tag == _TAG_STR:
        return reader.string()
    if tag == _TAG_SYMBOL:
        return Symbol(reader.string())
    if tag == _TAG_CHAR:
        codepoint = reader.uvarint()
        if codepoint > 0x10FFFF:
            raise CodecError(f"char code point {codepoint} out of range")
        return Char(chr(codepoint))
    if tag == _TAG_REF:
        return Ref(reader.uvarint())
    raise CodecError(f"unknown value tag {tag}")


# --------------------------------------------------------------------------
# objects
# --------------------------------------------------------------------------

def encode_object(obj: GemObject) -> bytes:
    """Encode a full object record: header, elements, association tables.

    The record grammar (``docs/storage.md``) lets appended associations
    follow the elements; a whole encode writes none — it is what folds a
    record's appended tail back into its tables.
    """
    writer = Writer()
    writer.raw(RECORD_MAGIC)
    kind = RECORD_CLASS if isinstance(obj, GemClass) else RECORD_PLAIN
    writer.raw(bytes([kind]))
    writer.uvarint(obj.oid)
    writer.uvarint(obj.class_oid)
    writer.uvarint(obj.segment_id)
    writer.uvarint(obj.created_at)
    if kind == RECORD_CLASS:
        _encode_class_definition(writer, obj)
    writer.uvarint(len(obj.elements))
    for name, table in obj.elements.items():
        encode_value(writer, name)
        _encode_table(writer, table)
    return writer.getvalue()


def encode_appends(bindings: Iterable[tuple[Any, Any]], tx_time: int) -> bytes:
    """Encode one transaction's bindings as appended associations.

    Each is ``name, tx_time, value`` — by name and with the absolute
    time, so the bytes can be concatenated to a record without reading
    it: section 6's commit only ever *adds* a (time, value) pair.
    """
    writer = Writer()
    for name, value in bindings:
        encode_value(writer, name)
        writer.uvarint(tx_time)
        encode_value(writer, value)
    return writer.getvalue()


def _encode_class_definition(writer: Writer, cls: GemClass) -> None:
    writer.string(cls.name)
    writer.uvarint(0 if cls.superclass_oid is None else cls.superclass_oid + 1)
    writer.uvarint(len(cls.instvar_names))
    for name in cls.instvar_names:
        writer.string(name)
    for methods in (cls.methods, cls.class_methods):
        sourced = [
            (selector, method.source)
            for selector, method in methods.items()
            if getattr(method, "source", None) is not None
        ]
        writer.uvarint(len(sourced))
        for selector, source in sourced:
            writer.string(selector)
            writer.string(source)


def _encode_table(writer: Writer, table: AssociationTable) -> None:
    writer.uvarint(len(table))
    previous = 0
    for time, value in table.history():
        writer.uvarint(time - previous)  # delta: times are ascending
        previous = time
        encode_value(writer, value)


def decode_object(data: bytes) -> GemObject:
    """Decode an object record produced by :func:`encode_object`.

    Stored method sources of class records are discarded here; use
    :func:`decode_object_full` when they are needed (the database layer
    recompiles them at open time).
    """
    obj, _ = decode_object_full(data)
    return obj


def decode_object_full(data: bytes) -> tuple[GemObject, list[tuple[str, str, str]]]:
    """Decode an object record together with stored method sources.

    Returns ``(object, sources)`` where each source entry is
    ``(side, selector, source_text)`` with side ``"instance"`` or
    ``"class"``; *sources* is empty for plain objects.
    """
    reader = Reader(data)
    if reader.raw(2) != RECORD_MAGIC:
        raise CodecError("bad object record magic")
    kind = reader.byte()
    oid = reader.uvarint()
    class_oid = reader.uvarint()
    segment_id = reader.uvarint()
    created_at = reader.uvarint()
    sources: list[tuple[str, str, str]] = []
    if kind == RECORD_CLASS:
        obj: GemObject = _decode_class_definition(
            reader, oid, class_oid, segment_id, created_at, sources
        )
    elif kind == RECORD_PLAIN:
        obj = GemObject(oid, class_oid, segment_id, created_at)
    else:
        raise CodecError(f"unknown record kind {kind}")
    count = reader.uvarint()
    for _ in range(count):
        name = decode_value(reader)
        obj.elements[name] = _decode_table(reader)
    # appended associations, in commit order, until the record ends; two
    # at one time on one element are one association (the later wins)
    while reader.remaining():
        name = decode_value(reader)
        time = reader.uvarint()
        table = obj.elements.get(name)
        if table is None:
            table = obj.elements[name] = AssociationTable()
        table.record(time, decode_value(reader))
    return obj, sources


def _decode_class_definition(
    reader: Reader,
    oid: int,
    class_oid: int,
    segment_id: int,
    created_at: int,
    sources: list[tuple[str, str, str]],
) -> GemClass:
    name = reader.string()
    raw_super = reader.uvarint()
    superclass_oid = None if raw_super == 0 else raw_super - 1
    instvars = tuple(reader.string() for _ in range(reader.uvarint()))
    cls = GemClass(
        oid=oid,
        class_oid=class_oid,
        name=name,
        superclass_oid=superclass_oid,
        instvar_names=instvars,
        segment_id=segment_id,
        created_at=created_at,
    )
    for side in ("instance", "class"):
        for _ in range(reader.uvarint()):
            selector = reader.string()
            source = reader.string()
            sources.append((side, selector, source))
    return cls


def _decode_table(reader: Reader) -> AssociationTable:
    table = AssociationTable()
    count = reader.uvarint()
    time = 0
    for _ in range(count):
        time += reader.uvarint()
        table.record(time, decode_value(reader))
    return table


# --------------------------------------------------------------------------
# root records
# --------------------------------------------------------------------------

#: written by this code: the root also lists the note's tracks
ROOT_MAGIC = b"GSR3"
#: formats still opened, neither of which has a note: "GSR2" (object
#: records may carry appended associations) and "GSRT" (before that).
#: The magic moves with every change of grammar so that *older* code —
#: whose decoder would silently stop before a record's appended tail, or
#: read this root one field short — finds no root it recognises and
#: refuses the platter instead.
_ROOT_MAGICS_BEFORE_NOTE = (b"GSR2", b"GSRT")

_ROOT_COUNTERS = ("last_tx_time", "next_oid", "alias_counter")
#: the last of these is the one only a :data:`ROOT_MAGIC` root carries
_ROOT_TRACK_LISTS = (
    "object_table_tracks", "allocation_tracks", "catalog_tracks", "note_tracks",
)


def encode_root(fields: dict[str, Any]) -> bytes:
    """Encode a root record: the single mutable anchor of the database.

    Fields: ``epoch``, the counters ``last_tx_time``, ``next_oid`` and
    ``alias_counter``, and the track lists ``object_table_tracks``,
    ``allocation_tracks``, ``catalog_tracks`` and ``note_tracks``; a
    platter that keeps no objects (the coordinator's decision log) leaves
    out what it has none of.  The catalog (name → well-known oid) is
    large and the note is the caller's, so each lives in its own blob and
    the root only points at it — the root must always fit a single track,
    since its write is the atomic commit point.
    """
    writer = Writer()
    writer.raw(ROOT_MAGIC)
    writer.uvarint(fields["epoch"])
    for key in _ROOT_COUNTERS:
        writer.uvarint(fields.get(key, 0))
    for key in _ROOT_TRACK_LISTS:
        tracks = fields.get(key, ())
        writer.uvarint(len(tracks))
        for track in tracks:
            writer.uvarint(track)
    return writer.getvalue()


def decode_root(data: bytes) -> dict[str, Any]:
    """Decode a root record; raises :class:`CodecError` if malformed.

    A root of an earlier format decodes without ``note_tracks`` — which
    is how a reader tells "no note yet" from "an empty note".
    """
    reader = Reader(data)
    magic = reader.raw(4)
    if magic == ROOT_MAGIC:
        lists = _ROOT_TRACK_LISTS
    elif magic in _ROOT_MAGICS_BEFORE_NOTE:
        lists = _ROOT_TRACK_LISTS[:-1]
    else:
        raise CodecError("bad root magic")
    fields: dict[str, Any] = {"epoch": reader.uvarint()}
    for key in _ROOT_COUNTERS:
        fields[key] = reader.uvarint()
    for key in lists:
        fields[key] = [reader.uvarint() for _ in range(reader.uvarint())]
    if reader.remaining():
        raise CodecError("root record has trailing bytes")
    return fields


def encode_catalog(catalog: dict[str, int]) -> bytes:
    """Serialize the well-known-name catalog blob."""
    writer = Writer()
    writer.uvarint(len(catalog))
    for name, oid in sorted(catalog.items()):
        writer.string(name)
        writer.uvarint(oid)
    return writer.getvalue()


def decode_catalog(data: bytes) -> dict[str, int]:
    """Deserialize :func:`encode_catalog` output."""
    reader = Reader(data)
    catalog: dict[str, int] = {}
    for _ in range(reader.uvarint()):
        name = reader.string()
        catalog[name] = reader.uvarint()
    return catalog


_U32 = struct.Struct("<I")


def crc_frame(payload: bytes) -> bytes:
    """``<u32 len> payload <u32 crc32>``: a root track or a log record."""
    return b"".join((_U32.pack(len(payload)), payload, _U32.pack(crc32(payload))))


def crc_unframe(data: bytes, offset: int = 0) -> tuple[bytes, int]:
    """(payload, end) of the :func:`crc_frame` record at *offset*: bad
    framing is a :class:`CodecError`, a bad CRC a :class:`ChecksumError`."""
    if len(data) - offset < 8:
        raise CodecError("record shorter than its framing")
    (length,) = _U32.unpack_from(data, offset)
    end = offset + 4 + length
    if length == 0 or end + 4 > len(data):
        raise CodecError("record has implausible length")
    payload = data[offset + 4 : end]
    if crc32(payload) != _U32.unpack_from(data, end)[0]:
        raise ChecksumError("record failed its CRC")
    return payload, end + 4


# --------------------------------------------------------------------------
# the note
# --------------------------------------------------------------------------

def encode_note(note: Mapping[str, bytes]) -> bytes:
    """Serialize the root-published note (name → bytes), CRC32 last.

    The note is protocol state that must change atomically with a
    commit yet is not part of the database: no object holds it, no
    history is kept of it.  An empty note is never encoded — its root
    lists no tracks.
    """
    writer = Writer()
    writer.uvarint(len(note))
    for name in sorted(note):
        writer.string(name)
        writer.uvarint(len(note[name]))
        writer.raw(note[name])
    payload = writer.getvalue()
    return payload + struct.pack("<I", crc32(payload))


def decode_note(data: bytes) -> dict[str, bytes]:
    """Deserialize :func:`encode_note` output.

    Raises :class:`ChecksumError` on a damaged blob and
    :class:`CodecError` on one that is not a note at all; it never
    returns a shorter note than was written.
    """
    if len(data) < 5:
        raise CodecError("note blob too short")
    payload = data[:-4]
    if struct.unpack("<I", data[-4:])[0] != crc32(payload):
        raise ChecksumError("note CRC mismatch")
    reader = Reader(payload)
    note: dict[str, bytes] = {}
    count = reader.uvarint()
    for _ in range(count):
        name = reader.string()
        note[name] = reader.raw(reader.uvarint())
    if reader.remaining() or len(note) != count:
        raise CodecError("note blob is not one well-formed note")
    return note
