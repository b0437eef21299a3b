"""The replica's side of continuous replication: the log store.

A :class:`ReplicaLogStore` is what survives the disaster.  It holds the
replication log as an ordered list of *segments*, each a run of framed
records (:mod:`repro.dr.log`).  A segment begins with a snapshot —
bootstrap or checkpoint — and accumulates deltas until it is rolled.

Admission is strict, because a log that accepts garbage cannot promise
recovery:

* every record is validated (framing + CRC) **before** it is stored; a
  torn record raises :class:`~repro.errors.TornLogRecord` and is never
  appended, so the stored log is always replayable end to end;
* delta epochs must be contiguous from the acknowledged epoch; a skip
  raises :class:`~repro.errors.ReplicationGapError` (the shipper's
  catch-up resolves it); a duplicate (epoch already acknowledged) is
  acknowledged again without re-appending — exactly-once on the wire,
  idempotent at the store.

Closed segments can be rolled onto
:class:`~repro.storage.archive.ArchiveMedia` (tiered cold storage, the
paper's S20 archival): the segment's concatenated records are stored
verbatim under one archive key and dropped locally.  Recovery walks
local segments newest-first and touches the archive only when the
requested epoch predates every local snapshot — so recent-epoch recovery
works with the archive volume unmounted, while a pre-archive
point-in-time request surfaces the typed
:class:`~repro.errors.ArchiveError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import ArchiveError, ReplicationGapError, TornLogRecord
from ..storage.archive import ArchiveDrive, ArchiveMedia
from .log import (
    DeltaRecord,
    LogRecord,
    SnapshotRecord,
    decode_record,
    iter_records,
)


@dataclass
class LogSegment:
    """One run of the log: a snapshot followed by contiguous deltas."""

    first_epoch: int
    last_epoch: int
    records: Optional[list[bytes]] = field(default_factory=list)
    closed: bool = False
    archive_key: Optional[int] = None  #: set once rolled onto cold storage

    @property
    def archived(self) -> bool:
        return self.archive_key is not None

    @property
    def bytes_stored(self) -> int:
        if self.records is None:
            return 0
        return sum(len(r) for r in self.records)


class ReplicaLogStore:
    """Validated, segmented storage for the replication log."""

    def __init__(self, archive_drive: Optional[ArchiveDrive] = None) -> None:
        self.segments: list[LogSegment] = []
        self.archive_drive = archive_drive or ArchiveDrive()
        #: highest epoch durably stored (what SHIP_ACK advertises)
        self.acked_epoch = 0
        self.records_appended = 0
        self.duplicates_ignored = 0
        self.torn_rejected = 0

    # -- admission ----------------------------------------------------------

    def append(self, record_bytes: bytes) -> int:
        """Validate and store one framed record; returns the acked epoch.

        Torn records are rejected (raised, counted, never stored);
        non-contiguous deltas raise :class:`ReplicationGapError`;
        already-acknowledged epochs are acknowledged again idempotently.
        """
        try:
            record = decode_record(record_bytes)
        except TornLogRecord:
            self.torn_rejected += 1
            raise
        if isinstance(record, SnapshotRecord):
            return self._append_snapshot(record, record_bytes)
        return self._append_delta(record, record_bytes)

    def _append_snapshot(self, record: SnapshotRecord, raw: bytes) -> int:
        if self.segments and record.epoch < self.acked_epoch:
            # a checkpoint must not rewind the log
            self.duplicates_ignored += 1
            return self.acked_epoch
        self._roll_open_segment()
        self.segments.append(
            LogSegment(first_epoch=record.epoch, last_epoch=record.epoch,
                       records=[raw])
        )
        self.records_appended += 1
        self.acked_epoch = max(self.acked_epoch, record.epoch)
        return self.acked_epoch

    def _append_delta(self, record: DeltaRecord, raw: bytes) -> int:
        if record.epoch <= self.acked_epoch:
            self.duplicates_ignored += 1  # resend of an applied record
            return self.acked_epoch
        if not self.segments:
            raise ReplicationGapError(
                f"delta epoch {record.epoch} arrived before any snapshot"
            )
        if record.epoch != self.acked_epoch + 1:
            raise ReplicationGapError(
                f"delta epoch {record.epoch} skips ahead of "
                f"acknowledged epoch {self.acked_epoch}"
            )
        segment = self.segments[-1]
        if segment.closed:
            # the previous segment was rolled; continue in a fresh one
            segment = LogSegment(
                first_epoch=record.epoch, last_epoch=record.epoch, records=[]
            )
            self.segments.append(segment)
        segment.records.append(raw)
        segment.last_epoch = record.epoch
        self.records_appended += 1
        self.acked_epoch = record.epoch
        return self.acked_epoch

    # -- segments and cold storage ------------------------------------------

    def _roll_open_segment(self) -> None:
        if self.segments and not self.segments[-1].closed:
            self.segments[-1].closed = True

    def roll_segment(self) -> None:
        """Close the currently open segment (next delta opens a new one)."""
        self._roll_open_segment()

    def archive_closed_segments(self, media: ArchiveMedia) -> list[int]:
        """Move every closed, still-local segment onto *media*.

        Each segment's concatenated records go under one archive key;
        the local copy is dropped.  Returns the new keys.  Recovery into
        an archived segment then requires the volume to be mounted on
        this store's :class:`~repro.storage.archive.ArchiveDrive`.
        """
        keys = []
        for segment in self.segments:
            if segment.closed and not segment.archived:
                key = media.store(b"".join(segment.records))
                segment.archive_key = key
                segment.records = None
                keys.append(key)
        return keys

    def _segment_records(self, segment: LogSegment) -> list[LogRecord]:
        if segment.archived:
            raw = self.archive_drive.fetch(segment.archive_key)
            return list(iter_records(raw))
        return [decode_record(r) for r in segment.records]

    # -- recovery planning ---------------------------------------------------

    def plan_recovery(self, epoch: Optional[int] = None) -> list[LogRecord]:
        """The record sequence that rebuilds the primary at *epoch*.

        Walks segments newest-first, collecting records at or before the
        target until a snapshot is found; returns ``[snapshot, deltas...]``
        in replay order.  Archived segments are only materialized when
        the target predates every local snapshot — fetching them without
        the volume mounted raises :class:`~repro.errors.ArchiveError`.
        """
        target = self.acked_epoch if epoch is None else epoch
        if target < 1 or target > self.acked_epoch:
            raise ReplicationGapError(
                f"epoch {target} is outside the log's range "
                f"(1..{self.acked_epoch})"
            )
        collected: list[LogRecord] = []
        for segment in reversed(self.segments):
            if segment.first_epoch > target:
                continue  # every record in this segment is after the target
            for record in reversed(self._segment_records(segment)):
                if record.epoch > target:
                    continue
                collected.append(record)
                if isinstance(record, SnapshotRecord):
                    return list(reversed(collected))
        raise ReplicationGapError(
            f"no snapshot at or before epoch {target} remains in the log"
        )

    # -- reporting -----------------------------------------------------------

    @property
    def bytes_stored(self) -> int:
        """Local (non-archived) log bytes held."""
        return sum(s.bytes_stored for s in self.segments)

    def report(self) -> dict:
        """Counters for dashboards and the soak digest."""
        return {
            "acked_epoch": self.acked_epoch,
            "segments": len(self.segments),
            "archived_segments": sum(1 for s in self.segments if s.archived),
            "records_appended": self.records_appended,
            "duplicates_ignored": self.duplicates_ignored,
            "torn_rejected": self.torn_rejected,
            "bytes_stored": self.bytes_stored,
        }
