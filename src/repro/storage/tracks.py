"""The Track Manager: allocation and scheduling of whole-track I/O.

Section 6: "The Track Manager schedules reads and writes of tracks."

Responsibilities here:

* **Allocation** — hand out free tracks, preferring contiguous runs so
  the Boxer's clustering survives on the platter; reclaim superseded
  shadow tracks after a commit becomes durable.
* **Scheduling** — group writes are issued in ascending track order
  (an elevator pass), which minimizes simulated seek cost.

The allocation state is not written anywhere: the store derives it at
open from what its root reaches (``StableStore._allocated``) and hands
it to :meth:`TrackManager.mark_allocated`.

Tracks 0 and 1 are reserved for the Commit Manager's two root slots.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import DiskError, StorageError

#: tracks reserved for the ping-pong root slots
RESERVED_TRACKS = (0, 1)


class TrackManager:
    """Allocates tracks and performs scheduled whole-track I/O."""

    def __init__(self, disk) -> None:
        self.disk = disk
        self._allocated: set[int] = set(RESERVED_TRACKS)
        #: no track below this one is free: where a scan starts
        self._floor = 0

    # -- allocation -----------------------------------------------------------

    @property
    def track_count(self) -> int:
        """Total tracks on the underlying disk."""
        return self.disk.track_count

    @property
    def track_size(self) -> int:
        """Bytes per track on the underlying disk."""
        return self.disk.track_size

    def allocated_tracks(self) -> set[int]:
        """A copy of the allocated set (root slots included)."""
        return set(self._allocated)

    def free_count(self) -> int:
        """Number of unallocated tracks."""
        return self.track_count - len(self._allocated)

    def allocate(self, count: int) -> list[int]:
        """Allocate *count* tracks, contiguous when possible.

        A single contiguous run is searched first; if none is long
        enough, the lowest-numbered free tracks are used.  Both scans
        start at the floor — no track below it is free, so they choose
        what a scan from track 0 would.  Raises :class:`StorageError`
        when the disk is full.
        """
        if count <= 0:
            return []
        if self.free_count() < count:
            raise StorageError(
                f"disk full: need {count} tracks, {self.free_count()} free"
            )
        allocated = self._allocated
        floor = self._floor
        while floor in allocated:
            floor += 1
        self._floor = floor
        run = self._find_contiguous(count)
        if run is None:
            run = []
            for track in range(floor, self.track_count):
                if track not in allocated:
                    run.append(track)
                    if len(run) == count:
                        break
        allocated.update(run)
        return run

    def _find_contiguous(self, count: int) -> list[int] | None:
        start = None
        length = 0
        for track in range(self._floor, self.track_count):
            if track in self._allocated:
                start = None
                length = 0
                continue
            if start is None:
                start = track
                length = 0
            length += 1
            if length == count:
                return list(range(start, start + count))
        return None

    def release(self, tracks: Iterable[int]) -> None:
        """Return tracks to the free pool (after the commit is durable)."""
        for track in tracks:
            if track in RESERVED_TRACKS:
                raise StorageError(f"cannot release reserved track {track}")
            self._allocated.discard(track)
            if track < self._floor:
                self._floor = track

    def mark_allocated(self, tracks: Iterable[int]) -> None:
        """Force tracks into the allocated set (used by recovery)."""
        self._allocated.update(tracks)

    # -- scheduled I/O -----------------------------------------------------------

    def read(self, track: int) -> bytes:
        """Read one track."""
        return self.disk.read_track(track)

    def read_many(self, tracks: Sequence[int]) -> dict[int, bytes]:
        """Read several tracks; issued in ascending order (one elevator pass)."""
        return {track: self.disk.read_track(track) for track in sorted(set(tracks))}

    def write(self, track: int, data: bytes) -> None:
        """Write one track."""
        if track in RESERVED_TRACKS:
            raise DiskError(f"track {track} is reserved for root records")
        self.disk.write_track(track, data)

    def write_group(self, writes: dict[int, bytes]) -> None:
        """Write a group of tracks in ascending order.

        This is raw scheduling only — atomicity of the group is the
        Commit Manager's job, which calls this for the shadow tracks and
        then publishes the root.
        """
        for track in sorted(writes):
            self.write(track, writes[track])
