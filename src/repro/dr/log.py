"""The replication log: self-delimiting, CRC-framed records.

Disaster recovery (docs/recovery.md) rests on one byte format.  Every
record is framed by the same code as the root track the Commit Manager
writes (:func:`~repro.storage.codec.crc_frame`) —

    <u32 payload length> <payload> <u32 crc32(payload)>

— so a record torn anywhere (truncated in transit, half a segment on a
dying medium) fails validation instead of replaying garbage.  Two
payload kinds exist:

* **delta** — one commit: the epoch, the root slot that was flipped, the
  exact framed root-track image, and the exact shadow track group.
  Replaying a delta repeats the primary's platter writes byte for byte.
* **snapshot** — the full platter at an epoch: every written track's
  (zero-trimmed) image plus the geometry.  A snapshot bootstraps a
  replica and later serves as the checkpoint a point-in-time recovery
  starts from.

The same framing doubles as the cold-storage format: closed log segments
are concatenations of records, stored verbatim on
:class:`~repro.storage.archive.ArchiveMedia` (see
:meth:`~repro.dr.store.ReplicaLogStore.archive_closed_segments`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from ..errors import ChecksumError, CodecError, TornLogRecord
from ..storage.codec import Reader, Writer, crc_frame, crc_unframe

#: payload kind bytes
RECORD_DELTA = 1
RECORD_SNAPSHOT = 2

#: framing overhead per record: u32 length + u32 crc
FRAME_OVERHEAD = 8


@dataclass(frozen=True)
class DeltaRecord:
    """One commit, as shipped: replaying it repeats the platter writes."""

    epoch: int
    root_slot: int  #: which ping-pong slot this commit's root landed on
    root_image: bytes  #: the exact framed root-track bytes
    writes: tuple[tuple[int, bytes], ...]  #: the shadow group, (track, data)


@dataclass(frozen=True)
class SnapshotRecord:
    """The full platter at an epoch: geometry + every written track."""

    epoch: int
    track_count: int
    track_size: int
    tracks: tuple[tuple[int, bytes], ...]  #: (track, zero-trimmed image)


LogRecord = Union[DeltaRecord, SnapshotRecord]


def encode_record(record: LogRecord) -> bytes:
    """Frame a record: length, typed payload, CRC32."""
    writer = Writer()
    if isinstance(record, DeltaRecord):
        writer.raw(bytes([RECORD_DELTA]))
        writer.uvarint(record.epoch)
        writer.uvarint(record.root_slot)
        writer.uvarint(len(record.root_image))
        writer.raw(record.root_image)
        writer.uvarint(len(record.writes))
        for track, data in sorted(record.writes):
            writer.uvarint(track)
            writer.uvarint(len(data))
            writer.raw(data)
    elif isinstance(record, SnapshotRecord):
        writer.raw(bytes([RECORD_SNAPSHOT]))
        writer.uvarint(record.epoch)
        writer.uvarint(record.track_count)
        writer.uvarint(record.track_size)
        writer.uvarint(len(record.tracks))
        for track, image in sorted(record.tracks):
            writer.uvarint(track)
            writer.uvarint(len(image))
            writer.raw(image)
    else:
        raise CodecError(f"cannot encode {type(record).__name__} as a log record")
    return crc_frame(writer.getvalue())


def decode_record(data: bytes) -> LogRecord:
    """Unframe and validate one record; :class:`TornLogRecord` on damage."""
    record, consumed = _decode_at(data, 0)
    if consumed != len(data):
        raise TornLogRecord(
            f"{len(data) - consumed} trailing bytes after a log record"
        )
    return record


def iter_records(data: bytes) -> Iterator[LogRecord]:
    """Yield every record of a segment; :class:`TornLogRecord` on damage."""
    offset = 0
    while offset < len(data):
        record, consumed = _decode_at(data, offset)
        offset += consumed
        yield record


def _decode_at(data: bytes, offset: int) -> tuple[LogRecord, int]:
    try:
        payload, end = crc_unframe(data, offset)
    except (CodecError, ChecksumError) as error:
        raise TornLogRecord(f"log {error}") from error
    try:
        return _decode_payload(payload), end - offset
    except CodecError as error:
        raise TornLogRecord(f"log record payload malformed: {error}") from error


def _decode_payload(payload: bytes) -> LogRecord:
    reader = Reader(payload)
    kind = reader.byte()
    if kind == RECORD_DELTA:
        epoch = reader.uvarint()
        root_slot = reader.uvarint()
        root_image = reader.raw(reader.uvarint())
        writes = tuple(
            (reader.uvarint(), reader.raw(reader.uvarint()))
            for _ in range(reader.uvarint())
        )
        return DeltaRecord(epoch, root_slot, root_image, writes)
    if kind == RECORD_SNAPSHOT:
        epoch = reader.uvarint()
        track_count = reader.uvarint()
        track_size = reader.uvarint()
        tracks = tuple(
            (reader.uvarint(), reader.raw(reader.uvarint()))
            for _ in range(reader.uvarint())
        )
        return SnapshotRecord(epoch, track_count, track_size, tracks)
    raise CodecError(f"unknown log record kind {kind}")


def snapshot_of(disk, epoch: int) -> SnapshotRecord:
    """Capture *disk*'s full written state as a snapshot record.

    Track images are stored zero-trimmed — lossless, because the
    simulated disk zero-pads every write to the track size, so trimmed
    images replay to byte-identical platters.
    """
    tracks = []
    for track in range(disk.track_count):
        if disk.is_written(track):
            tracks.append((track, disk.read_track(track).rstrip(b"\x00")))
    return SnapshotRecord(
        epoch=epoch,
        track_count=disk.track_count,
        track_size=disk.track_size,
        tracks=tuple(tracks),
    )
