"""Frame encoding for the Executor protocol.

Section 6: "The Executor handles communications between GemStone and
host software: receiving blocks of code, returning results and error
messages."

Frame layout (inside the link's length framing): one type byte, then a
type-specific payload using the storage codec's primitives.  Results
carry both the value — when it is an immediate or an object reference —
and its display string, so hosts without an object memory can still show
something; structured objects travel as (oid, display) pairs, never by
value.

Reliability: any frame may be wrapped in a SEQ envelope —

    SEQ  uvarint(sequence number)  flags  [f64 deadline]
         u32 crc32(inner frame)  inner frame

— which gives the host ↔ Gem conversation exactly-once semantics over a
lossy link.  Bit 0 of the flags byte marks an attached *deadline*: the
simulated-clock instant after which the sender no longer wants the
request served (the Executor answers a typed ``DeadlineExceeded`` error
instead of doing stale work).  The sequence number lets the Executor recognise a resend of
the last in-flight request and replay its cached response instead of
applying the request twice; the checksum distinguishes a frame damaged
in transit (:class:`~repro.errors.LinkCorruption`, silently droppable —
the sender will retry) from one that was malformed at the source (a
:class:`~repro.errors.ProtocolError` worth answering).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Any
from zlib import crc32

from ..core.objects import GemObject
from ..errors import CodecError, LinkCorruption, ProtocolError
from ..storage.codec import (
    Reader, Writer, decode_value, encode_value, uvarint_at, uvarint_bytes,
)


class FrameType(IntEnum):
    """Protocol frame types."""

    LOGIN = 1
    LOGIN_OK = 2
    EXECUTE = 3
    RESULT = 4
    ERROR = 5
    COMMIT = 6
    COMMITTED = 7
    CONFLICT = 8
    ABORT = 9
    ABORTED = 10
    LOGOUT = 11
    BYE = 12
    SEQ = 13
    OVERLOADED = 14
    SHIP = 15
    SHIP_ACK = 16
    SNAPSHOT = 17
    SHIP_STATUS = 18
    # -- sharded object space (repro.shard) --------------------------------
    PREPARE = 19
    VOTE = 20
    DECIDE = 21
    DECIDE_ACK = 22
    SHARD_EXEC = 25
    SHARD_COMMIT = 26
    # -- repro.net: TCP session resume + process status
    HELLO = 27
    HELLO_OK = 28
    STATUS = 29
    STATUS_REPORT = 30


@dataclass(slots=True)
class Frame:
    """A decoded protocol frame (``seq``/``deadline``/``request_id``/
    ``channel`` set when enveloped); a value, compared field by field."""

    type: FrameType
    fields: dict[str, Any]
    seq: int | None = None
    deadline: float | None = None
    request_id: int | None = None
    channel: int | None = None


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


def rehydrate_error(error_class: str, message: str) -> Exception:
    """Reconstruct a typed library error from its wire (class, message) pair.

    Unknown or unregistered classes degrade to a typed
    :class:`~repro.errors.FatalError` with the original class name
    preserved in the message (and on ``original_class``), so a newer peer
    never crashes an older one — and so retry policy treats an error it
    cannot classify as non-retryable rather than guessing.  Shared by the
    host connection, the replication shipper, and the shard links.
    """
    from .. import errors as errors_module
    from ..errors import FatalError, GemStoneError

    cls = getattr(errors_module, error_class, None)
    if isinstance(cls, type) and issubclass(cls, GemStoneError):
        try:
            return cls(message)
        except TypeError:
            # structured constructor (caps, meters) the bare message
            # cannot satisfy: the *type* must still survive the trip
            error = cls.__new__(cls)
            Exception.__init__(error, message)
            return error
    error = FatalError(f"{error_class}: {message}")
    error.original_class = error_class
    return error


def raise_if_error(frame: Frame) -> Frame:
    """*frame* itself — unless it is an ERROR, which raises as its typed
    exception (:func:`rehydrate_error`)."""
    if frame.type is FrameType.ERROR:
        raise rehydrate_error(
            frame.fields["error_class"], frame.fields["message"]
        )
    return frame


def login_reply(frame: Frame) -> int:
    """A LOGIN's answer: the session id (an ERROR raises, typed)."""
    return raise_if_error(frame).fields["session_id"]


def execute_reply(frame: Frame) -> tuple[Any, str]:
    """An EXECUTE's answer: (wire value, display string)."""
    fields = raise_if_error(frame).fields
    return fields["value"], fields["display"]


def commit_reply(frame: Frame) -> int | None:
    """A COMMIT's answer: the transaction time, or None on CONFLICT."""
    if frame.type is FrameType.CONFLICT:
        return None
    return raise_if_error(frame).fields["tx_time"]


#: SEQ flags-byte bits
_SEQ_HAS_DEADLINE = 0x01
_SEQ_HAS_REQUEST_ID = 0x02
_SEQ_HAS_CHANNEL = 0x04

_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")
_SEQ_BYTE = bytes([FrameType.SEQ])


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
    flags = 0
    options = b""
    if deadline is not None:
        flags |= _SEQ_HAS_DEADLINE
        options = _F64.pack(deadline)
    if request_id is not None:
        flags |= _SEQ_HAS_REQUEST_ID
        options += uvarint_bytes(request_id)
    if channel is not None:
        flags |= _SEQ_HAS_CHANNEL
        options += uvarint_bytes(channel)
    return b"".join((
        _SEQ_BYTE, uvarint_bytes(seq), bytes((flags,)), options,
        _U32.pack(crc32(inner)), inner,
    ))


def _read_gtid(r: Reader) -> dict[str, Any]:
    return {"gtid": r.string()}


def _read_token(r: Reader) -> dict[str, Any]:
    return {"token": r.string()}


def _read_record(r: Reader) -> dict[str, Any]:
    return {"record": r.raw(r.remaining())}


#: what follows the type byte, per frame type: each entry reads the
#: fields off a :class:`Reader` placed just after it, in wire order (a
#: type that is absent here is the type byte alone)
_FIELDS = {
    FrameType.LOGIN: lambda r: {"user": r.string(), "password": r.string()},
    FrameType.LOGIN_OK: lambda r: {"session_id": r.uvarint()},
    FrameType.EXECUTE: lambda r: {"source": r.string()},
    FrameType.RESULT: lambda r: {
        "value": decode_value(r), "display": r.string(), "wire_value": r.byte() == 1,
    },
    FrameType.ERROR: lambda r: {"error_class": r.string(), "message": r.string()},
    FrameType.COMMITTED: lambda r: {"tx_time": r.uvarint()},
    FrameType.OVERLOADED: lambda r: {"retry_after": r.double()},
    FrameType.SHIP: _read_record,
    FrameType.SNAPSHOT: _read_record,
    FrameType.SHIP_ACK: lambda r: {"epoch": r.uvarint()},
    FrameType.PREPARE: _read_gtid,
    FrameType.SHARD_COMMIT: _read_gtid,
    FrameType.VOTE: lambda r: {
        "gtid": r.string(), "commit": r.byte() == 1, "read_only": r.byte() == 1,
    },
    FrameType.DECIDE: lambda r: {"gtid": r.string(), "commit": r.byte() == 1},
    FrameType.DECIDE_ACK: lambda r: {"gtid": r.string(), "epoch": r.uvarint()},
    FrameType.SHARD_EXEC: lambda r: {"gtid": r.string(), "source": r.string()},
    FrameType.HELLO: _read_token,
    FrameType.HELLO_OK: _read_token,
    FrameType.STATUS: lambda r: {"verify": r.byte() == 1},
    FrameType.STATUS_REPORT: lambda r: {"payload": r.string()},
}

#: type byte -> (FrameType, its field reader or None); SEQ is the
#: envelope, never a frame of its own
_PAYLOADS = {
    int(frame_type): (frame_type, _FIELDS.get(frame_type))
    for frame_type in FrameType if frame_type is not FrameType.SEQ
}


def decode_frame(data: bytes) -> Frame:
    """Decode any protocol frame, in place.

    The envelope is read by index straight off *data* and the inner
    frame is decoded where it lies, so an enveloped frame costs one
    slice (for its checksum) and one :class:`Reader`.  Every outcome is
    typed: damage the checksum can see — a truncated envelope, a wrong
    CRC — is :class:`~repro.errors.LinkCorruption` (droppable, the
    sender retries); anything else that cannot be read is a
    :class:`~repro.errors.ProtocolError` worth answering.
    """
    if not data:
        raise ProtocolError("empty frame")
    kind = data[0]
    seq = deadline = request_id = channel = None
    start = 1
    if kind == FrameType.SEQ:
        try:
            seq, pos = uvarint_at(data, 1)
            flags = data[pos]
            pos += 1
            if flags & _SEQ_HAS_DEADLINE:
                (deadline,) = _F64.unpack_from(data, pos)
                pos += 8
            if flags & _SEQ_HAS_REQUEST_ID:
                request_id, pos = uvarint_at(data, pos)
            if flags & _SEQ_HAS_CHANNEL:
                channel, pos = uvarint_at(data, pos)
            (stored_crc,) = _U32.unpack_from(data, pos)
            start = pos + 4
        except (IndexError, struct.error, CodecError) as error:
            raise LinkCorruption("sequence envelope truncated in transit") from error
        if crc32(data[start:]) != stored_crc:
            raise LinkCorruption(f"frame seq {seq} failed its checksum")
        if start == len(data):
            raise ProtocolError("empty frame")
        kind = data[start]
        if kind == FrameType.SEQ:
            raise ProtocolError("nested sequence envelopes are not allowed")
        start += 1
    try:
        frame_type, read = _PAYLOADS[kind]
    except KeyError:
        raise ProtocolError(f"unknown frame type {kind}") from None
    if read is None:
        return Frame(frame_type, {}, seq, deadline, request_id, channel)
    try:
        fields = read(Reader(data, start))
    except CodecError as error:  # malformed at the source, not in transit
        raise ProtocolError(str(error)) from None
    return Frame(frame_type, fields, seq, deadline, request_id, channel)
