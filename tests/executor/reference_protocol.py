"""The Executor protocol's codec as it stood before the in-place decoder.

Frozen at ``c413601``: the storage codec's ``Writer`` and per-byte
``Reader`` (every byte through ``byte → raw → remaining``), every frame
encoder, and ``decode_frame`` walking a ``Reader`` — the oracle
``test_protocol_differential.py`` holds ``repro.executor.protocol``
against (the way ``reference_lexer.py`` serves the OPAL scanner).  It is
test support only; nothing under ``src`` imports it.

One rule differs from the parent, and it is applied *around* the frozen
decoder rather than inside it: a frame whose payload cannot be read is
malformed at the source, so it is a :class:`ProtocolError` carrying the
message the parent raised as ``CodecError`` — the link layers catch
``ProtocolError`` and nothing else.  The value codec
(``encode_value`` / ``decode_value``) is the live one, driven through
this file's ``Writer`` and ``Reader``.
"""

from __future__ import annotations

import struct
from typing import Any
from zlib import crc32

from repro.core.objects import GemObject
from repro.errors import CodecError, LinkCorruption, ProtocolError
from repro.executor.protocol import Frame, FrameType
from repro.storage.codec import decode_value, encode_value


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


class Reader:
    """A cursor over bytes, mirror of :class:`Writer`."""

    __slots__ = ("_data", "pos")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self._data = data
        self.pos = pos

    def remaining(self) -> int:
        """Bytes left after the cursor."""
        return len(self._data) - self.pos

    def raw(self, count: int) -> bytes:
        """Read *count* raw bytes."""
        if self.remaining() < count:
            raise CodecError("unexpected end of encoded data")
        chunk = self._data[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def byte(self) -> int:
        """Read one byte as an int."""
        return self.raw(1)[0]

    def uvarint(self) -> int:
        """Read an unsigned LEB128 varint."""
        result = 0
        shift = 0
        while True:
            byte = self.byte()
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 70:
                raise CodecError("varint too long")

    def svarint(self) -> int:
        """Read a signed (zigzag) varint."""
        raw = self.uvarint()
        return (raw >> 1) ^ -(raw & 1)

    def string(self) -> str:
        """Read a length-prefixed UTF-8 string."""
        length = self.uvarint()
        try:
            return self.raw(length).decode("utf-8")
        except UnicodeDecodeError as error:
            raise CodecError(f"string is not UTF-8: {error}") from None

    def double(self) -> float:
        """Read an 8-byte IEEE double."""
        return struct.unpack("<d", self.raw(8))[0]


def encode_login(user: str, password: str) -> bytes:
    writer = Writer()
    writer.raw(bytes([FrameType.LOGIN]))
    writer.string(user)
    writer.string(password)
    return writer.getvalue()


def encode_login_ok(session_id: int) -> bytes:
    writer = Writer()
    writer.raw(bytes([FrameType.LOGIN_OK]))
    writer.uvarint(session_id)
    return writer.getvalue()


def encode_execute(source: str) -> bytes:
    writer = Writer()
    writer.raw(bytes([FrameType.EXECUTE]))
    writer.string(source)
    return writer.getvalue()


def encode_result(value: Any, display: str) -> bytes:
    """Encode an execution result: wire value (if expressible) + display."""
    writer = Writer()
    writer.raw(bytes([FrameType.RESULT]))
    if isinstance(value, GemObject):
        value = value.ref
    try:
        encode_value(writer, value)
        wire_ok = True
    except Exception:
        writer = Writer()
        writer.raw(bytes([FrameType.RESULT]))
        encode_value(writer, None)
        wire_ok = False
    writer.string(display)
    writer.raw(bytes([1 if wire_ok else 0]))
    return writer.getvalue()


def encode_error(error_class: str, message: str) -> bytes:
    writer = Writer()
    writer.raw(bytes([FrameType.ERROR]))
    writer.string(error_class)
    writer.string(message)
    return writer.getvalue()


def encode_simple(frame_type: FrameType) -> bytes:
    return bytes([frame_type])


def encode_committed(tx_time: int) -> bytes:
    writer = Writer()
    writer.raw(bytes([FrameType.COMMITTED]))
    writer.uvarint(tx_time)
    return writer.getvalue()


def encode_overloaded(retry_after: float) -> bytes:
    """The load-shedding answer: come back in *retry_after* clock units."""
    writer = Writer()
    writer.raw(bytes([FrameType.OVERLOADED]))
    writer.raw(struct.pack("<d", float(retry_after)))
    return writer.getvalue()


# -- replication log shipping (repro.dr) -----------------------------------
#
# The disaster-recovery shipper reuses this protocol wholesale: SHIP and
# SNAPSHOT frames carry self-delimiting CRC-framed log records (built by
# repro.dr.log) as opaque payloads, wrapped in the same SEQ envelope the
# host link uses, so they inherit exactly-once delivery, checksums, and
# the repro.faults.link fault wrappers without any new machinery.


def encode_ship(record: bytes) -> bytes:
    """A delta log record bound for the replica's log store."""
    writer = Writer()
    writer.raw(bytes([FrameType.SHIP]))
    writer.raw(record)
    return writer.getvalue()


def encode_snapshot(record: bytes) -> bytes:
    """A snapshot log record (full-state bootstrap segment member)."""
    writer = Writer()
    writer.raw(bytes([FrameType.SNAPSHOT]))
    writer.raw(record)
    return writer.getvalue()


def encode_ship_ack(epoch: int) -> bytes:
    """The replica's durable-acknowledgement: log applied through *epoch*."""
    writer = Writer()
    writer.raw(bytes([FrameType.SHIP_ACK]))
    writer.uvarint(epoch)
    return writer.getvalue()


def encode_ship_status() -> bytes:
    """Ask the replica which epoch it has durably acknowledged."""
    return bytes([FrameType.SHIP_STATUS])


# -- sharded object space (repro.shard) -------------------------------------
#
# Cross-shard commit speaks presumed-abort two-phase commit over the same
# SEQ envelope: the coordinator PREPAREs every touched shard, collects
# VOTEs, durably logs a commit decision, and DECIDEs; a restarted shard
# re-acquires its prepared locks and recovery DECIDEs each in-doubt
# transaction from the decision log.  SHARD_EXEC routes one
# statement into a shard-side transaction; SHARD_COMMIT is the one-shard
# fast path that skips the protocol entirely.


def encode_prepare(gtid: str) -> bytes:
    """Phase one: validate *gtid* and durably persist its prepared state."""
    writer = Writer()
    writer.raw(bytes([FrameType.PREPARE]))
    writer.string(gtid)
    return writer.getvalue()


def encode_vote(gtid: str, commit: bool, read_only: bool = False) -> bytes:
    """The participant's phase-one answer (NO is final; YES is a promise)."""
    writer = Writer()
    writer.raw(bytes([FrameType.VOTE]))
    writer.string(gtid)
    writer.raw(bytes([1 if commit else 0, 1 if read_only else 0]))
    return writer.getvalue()


def encode_decide(gtid: str, commit: bool) -> bytes:
    """Phase two: apply (or discard) the prepared transaction."""
    writer = Writer()
    writer.raw(bytes([FrameType.DECIDE]))
    writer.string(gtid)
    writer.raw(bytes([1 if commit else 0]))
    return writer.getvalue()


def encode_decide_ack(gtid: str, epoch: int) -> bytes:
    """The participant applied the decision; *epoch* is its local epoch."""
    writer = Writer()
    writer.raw(bytes([FrameType.DECIDE_ACK]))
    writer.string(gtid)
    writer.uvarint(epoch)
    return writer.getvalue()


def encode_shard_exec(gtid: str, source: str) -> bytes:
    """Route one OPAL statement into shard-side transaction *gtid*."""
    writer = Writer()
    writer.raw(bytes([FrameType.SHARD_EXEC]))
    writer.string(gtid)
    writer.string(source)
    return writer.getvalue()


# -- real-socket session layer (repro.net) ----------------------------------
#
# A TCP connection can drop and be redialed, so the socket client opens
# every connection with HELLO carrying a session-resume token.  The server
# answers HELLO_OK (unsequenced) and binds the connection to the token's
# executor — same session, same replay window — which is what makes
# post-reconnect resends of unacked seqs land as replays instead of
# double-applies.  STATUS/STATUS_REPORT is the shard worker's health and
# recovery probe (in-doubt gtids, window census) used by repro.shard.


def encode_hello(token: str) -> bytes:
    """Open (or resume) the socket session identified by *token*."""
    writer = Writer()
    writer.raw(bytes([FrameType.HELLO]))
    writer.string(token)
    return writer.getvalue()


def encode_hello_ok(token: str) -> bytes:
    """The server bound this connection to *token*'s session."""
    writer = Writer()
    writer.raw(bytes([FrameType.HELLO_OK]))
    writer.string(token)
    return writer.getvalue()


def encode_status(verify: bool = False) -> bytes:
    """Ask a shard worker for its recovery/health report; with *verify*,
    also for a cold reopen of its platter diffed against its live store."""
    return bytes([FrameType.STATUS, 1 if verify else 0])


def encode_status_report(payload: str) -> bytes:
    """The worker's answer: a JSON document (in-doubt gtids, windows…)."""
    writer = Writer()
    writer.raw(bytes([FrameType.STATUS_REPORT]))
    writer.string(payload)
    return writer.getvalue()


def encode_shard_commit(gtid: str) -> bytes:
    """Single-shard fast path: commit *gtid* locally, no 2PC."""
    writer = Writer()
    writer.raw(bytes([FrameType.SHARD_COMMIT]))
    writer.string(gtid)
    return writer.getvalue()


#: SEQ flags-byte bits
_SEQ_HAS_DEADLINE = 0x01
_SEQ_HAS_REQUEST_ID = 0x02
_SEQ_HAS_CHANNEL = 0x04


def encode_seq(
    seq: int,
    inner: bytes,
    deadline: float | None = None,
    request_id: int | None = None,
    channel: int | None = None,
) -> bytes:
    """Wrap any encoded frame in a checksummed sequence envelope.

    *request_id* (flags bit 1) carries the observability request ID the
    Executor minted for this exchange, so host-side and Gem-side trace
    spans of one request correlate; old peers ignore the bit.

    *channel* (flags bit 2) names the logical stream the sequence number
    belongs to, so several conversations with independent counters can
    multiplex one link — a shard worker receives session-exec traffic and
    2PC control traffic on the same wire, and its replay cache must never
    answer stream A's resend with stream B's cached response.  Absent
    means channel 0 (the single-stream conversations of older peers).
    """
    writer = Writer()
    writer.raw(bytes([FrameType.SEQ]))
    writer.uvarint(seq)
    flags = 0
    if deadline is not None:
        flags |= _SEQ_HAS_DEADLINE
    if request_id is not None:
        flags |= _SEQ_HAS_REQUEST_ID
    if channel is not None:
        flags |= _SEQ_HAS_CHANNEL
    writer.raw(bytes([flags]))
    if deadline is not None:
        writer.raw(struct.pack("<d", float(deadline)))
    if request_id is not None:
        writer.uvarint(request_id)
    if channel is not None:
        writer.uvarint(channel)
    writer.raw(struct.pack("<I", crc32(inner)))
    writer.raw(inner)
    return writer.getvalue()


def _parent_decode_frame(data: bytes) -> Frame:
    """Decode any protocol frame (the parent's ``decode_frame``, verbatim)."""
    if not data:
        raise ProtocolError("empty frame")
    reader = Reader(data)
    try:
        frame_type = FrameType(reader.byte())
    except ValueError as error:
        raise ProtocolError(f"unknown frame type {data[0]}") from error
    if frame_type is FrameType.SEQ:
        try:
            seq = reader.uvarint()
            flags = reader.byte()
            deadline = None
            if flags & _SEQ_HAS_DEADLINE:
                (deadline,) = struct.unpack("<d", reader.raw(8))
            request_id = None
            if flags & _SEQ_HAS_REQUEST_ID:
                request_id = reader.uvarint()
            channel = None
            if flags & _SEQ_HAS_CHANNEL:
                channel = reader.uvarint()
            (stored_crc,) = struct.unpack("<I", reader.raw(4))
            inner = reader.raw(reader.remaining())
        except CodecError as error:
            raise LinkCorruption("sequence envelope truncated in transit") from error
        if crc32(inner) != stored_crc:
            raise LinkCorruption(f"frame seq {seq} failed its checksum")
        if inner and inner[0] == FrameType.SEQ:
            raise ProtocolError("nested sequence envelopes are not allowed")
        decoded = _parent_decode_frame(inner)
        return Frame(
            decoded.type, decoded.fields,
            seq=seq, deadline=deadline, request_id=request_id, channel=channel,
        )
    fields: dict[str, Any] = {}
    if frame_type is FrameType.LOGIN:
        fields["user"] = reader.string()
        fields["password"] = reader.string()
    elif frame_type is FrameType.LOGIN_OK:
        fields["session_id"] = reader.uvarint()
    elif frame_type is FrameType.EXECUTE:
        fields["source"] = reader.string()
    elif frame_type is FrameType.RESULT:
        fields["value"] = decode_value(reader)
        fields["display"] = reader.string()
        fields["wire_value"] = reader.byte() == 1
    elif frame_type is FrameType.ERROR:
        fields["error_class"] = reader.string()
        fields["message"] = reader.string()
    elif frame_type is FrameType.COMMITTED:
        fields["tx_time"] = reader.uvarint()
    elif frame_type is FrameType.OVERLOADED:
        (fields["retry_after"],) = struct.unpack("<d", reader.raw(8))
    elif frame_type in (FrameType.SHIP, FrameType.SNAPSHOT):
        fields["record"] = reader.raw(reader.remaining())
    elif frame_type is FrameType.SHIP_ACK:
        fields["epoch"] = reader.uvarint()
    elif frame_type in (FrameType.PREPARE, FrameType.SHARD_COMMIT):
        fields["gtid"] = reader.string()
    elif frame_type is FrameType.VOTE:
        fields["gtid"] = reader.string()
        fields["commit"] = reader.byte() == 1
        fields["read_only"] = reader.byte() == 1
    elif frame_type is FrameType.DECIDE:
        fields["gtid"] = reader.string()
        fields["commit"] = reader.byte() == 1
    elif frame_type is FrameType.DECIDE_ACK:
        fields["gtid"] = reader.string()
        fields["epoch"] = reader.uvarint()
    elif frame_type is FrameType.SHARD_EXEC:
        fields["gtid"] = reader.string()
        fields["source"] = reader.string()
    elif frame_type in (FrameType.HELLO, FrameType.HELLO_OK):
        fields["token"] = reader.string()
    elif frame_type is FrameType.STATUS:
        fields["verify"] = reader.byte() == 1
    elif frame_type is FrameType.STATUS_REPORT:
        fields["payload"] = reader.string()
    return Frame(frame_type, fields)


def decode_frame(data: bytes) -> Frame:
    """The parent's decoder under the one typed-error rule (module doc)."""
    try:
        return _parent_decode_frame(data)
    except CodecError as error:
        raise ProtocolError(str(error)) from None
