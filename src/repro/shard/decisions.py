"""The coordinator's durable decision log — presumed abort.

Classic presumed-abort 2PC logging discipline:

* Only **commit** decisions are forced to disk, *before* any DECIDE is
  sent.  An abort is never logged: a participant asking about a gtid
  the log does not know gets the answer ABORT, which is exactly right
  whether the coordinator aborted deliberately or crashed before
  deciding.
* Once every read-write participant has acknowledged its DECIDE, the
  entry is **forgotten** (removed durably) — no participant can ever
  ask again, so the log stays O(in-flight), not O(history).

Durability reuses the Commit Manager's safe group writes on a small
dedicated disk: the decision set is serialized, cut into freshly
allocated tracks, and published by the atomic root flip — a crash
during :meth:`record_commit` leaves the previous decision set intact,
so the "before/after decision persist" crash windows in the soak are
exactly the two sides of one root-track write.
"""

from __future__ import annotations

import struct

from ..errors import RecoveryError
from ..storage.codec import Reader, Writer
from ..storage.commit import CommitManager
from ..storage.tracks import TrackManager


class DecisionLog:
    """Durable gtid → committed-participants map with safe writes."""

    def __init__(self, disk) -> None:
        self.disk = disk
        self.tracks = TrackManager(disk)
        self.commit_manager = CommitManager(self.tracks)
        #: gtid -> tuple of read-write participant shard ids
        self._decisions: dict[str, tuple[int, ...]] = {}
        self._data_tracks: list[int] = []
        self.commits_recorded = 0
        self.forgotten = 0

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(cls, disk) -> "DecisionLog":
        """Format a fresh (empty) decision log on *disk*."""
        log = cls(disk)
        log._persist()
        return log

    @classmethod
    def open(cls, disk) -> "DecisionLog":
        """Recover the decision set from *disk* (the restart path)."""
        log = cls(disk)
        fields = log.commit_manager.recover()
        data_tracks = list(fields["catalog_tracks"])
        log.tracks.mark_allocated(data_tracks)
        chunks = [log.tracks.read(track) for track in data_tracks]
        framed = b"".join(chunks)
        if len(framed) < 4:
            raise RecoveryError("decision log payload truncated")
        (length,) = struct.unpack_from("<I", framed, 0)
        log._decisions = log._decode(framed[4 : 4 + length])
        log._data_tracks = data_tracks
        return log

    # -- the protocol surface -----------------------------------------------

    def record_commit(self, gtid: str, participants: list[int]) -> None:
        """Force the COMMIT decision for *gtid* to disk (phase-two gate)."""
        self._decisions[gtid] = tuple(sorted(participants))
        self._persist()
        self.commits_recorded += 1

    def forget(self, gtid: str) -> None:
        """Durably drop a fully acknowledged commit decision."""
        if self._decisions.pop(gtid, None) is not None:
            self._persist()
            self.forgotten += 1

    def decision(self, gtid: str) -> bool:
        """The recovery verdict: True = commit; absence presumes abort."""
        return gtid in self._decisions

    def pending(self) -> dict[str, tuple[int, ...]]:
        """Commit decisions not yet fully acknowledged (restart work)."""
        return dict(self._decisions)

    # -- serialization ------------------------------------------------------

    def _encode(self) -> bytes:
        writer = Writer()
        writer.uvarint(len(self._decisions))
        for gtid in sorted(self._decisions):
            writer.string(gtid)
            participants = self._decisions[gtid]
            writer.uvarint(len(participants))
            for shard in participants:
                writer.uvarint(shard)
        return writer.getvalue()

    @staticmethod
    def _decode(payload: bytes) -> dict[str, tuple[int, ...]]:
        reader = Reader(payload)
        decisions: dict[str, tuple[int, ...]] = {}
        for _ in range(reader.uvarint()):
            gtid = reader.string()
            count = reader.uvarint()
            decisions[gtid] = tuple(reader.uvarint() for _ in range(count))
        return decisions

    def _persist(self) -> None:
        payload = self._encode()
        framed = struct.pack("<I", len(payload)) + payload
        size = self.tracks.track_size
        chunks = [
            framed[i : i + size] for i in range(0, len(framed), size)
        ] or [b"\x00\x00\x00\x00"]
        new_tracks = self.tracks.allocate(len(chunks))
        self.commit_manager.commit(
            dict(zip(new_tracks, chunks)),
            {
                "last_tx_time": 0,
                "next_oid": 0,
                "alias_counter": 0,
                "object_table_tracks": [],
                "allocation_tracks": [],
                "catalog_tracks": list(new_tracks),
            },
        )
        if self._data_tracks:
            self.tracks.release(self._data_tracks)
        self._data_tracks = new_tracks

    def report(self) -> dict:
        """Counters for observability and the soak digest."""
        return {
            "pending": len(self._decisions),
            "commits_recorded": self.commits_recorded,
            "forgotten": self.forgotten,
            "epoch": self.commit_manager.current_epoch,
        }
