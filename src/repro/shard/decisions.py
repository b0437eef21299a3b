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

Durability is the storage layer's own: the decision set is a **note**
(:func:`~repro.storage.stable.write_note`) on a small dedicated disk
that holds nothing else — the same checksummed blob, on freshly
allocated tracks, that a shard's store publishes its in-doubt set in,
listed by the same root record and made current by the same atomic root
flip.  A crash during :meth:`record_commit` leaves the previous decision
set intact, so the "before/after decision persist" crash windows in the
soak are exactly the two sides of one root-track write; an empty log is
a root and no other track.
"""

from __future__ import annotations

from ..storage.codec import Reader, Writer
from ..storage.commit import CommitManager
from ..storage.stable import read_note, write_note
from ..storage.tracks import TrackManager

#: the name the decision set goes by in the log disk's note
NOTE_NAME = "decisions"


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
        if "note_tracks" in fields:
            log._data_tracks = fields["note_tracks"]
            payload = read_note(log.tracks, log._data_tracks).get(NOTE_NAME)
        else:
            # a log of the format before the note: raw track-size chunks
            # of one length-prefixed payload, behind ``catalog_tracks``
            log._data_tracks = fields["catalog_tracks"]
            framed = b"".join(map(log.tracks.read, log._data_tracks))
            payload = framed[4 : 4 + int.from_bytes(framed[:4], "little")]
        log.tracks.mark_allocated(log._data_tracks)
        if payload:
            log._decisions = log._decode(payload)
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
        note = {NOTE_NAME: self._encode()} if self._decisions else {}
        new_tracks, writes = write_note(self.tracks, note)
        self.commit_manager.commit(writes, {"note_tracks": new_tracks})
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
