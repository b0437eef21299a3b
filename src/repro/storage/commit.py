"""The Commit Manager: safe writing of track groups.

Section 6: "The Commit Manager provides safe writing for groups of
tracks.  Safe writing guarantees that all the tracks in the group get
written, or none get written, and that the tracks in the group replace
their old versions atomically."

Mechanism: shadow paging with ping-pong root slots.

1. Every track in the group is written to a *freshly allocated* track —
   never over live data.
2. The root record (epoch, object-table pointers, allocation bitmap
   pointers) is then written to whichever of tracks 0/1 does **not**
   hold the current root, with the epoch incremented and a CRC over the
   payload.

A crash anywhere before step 2 completes leaves the old root — and thus
the entire old database state — intact; recovery picks the valid root
slot with the highest epoch.  The single root-track write is the atomic
commit point (a single track write is atomic on the simulated disk, as
on real hardware).
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import ChecksumError, CodecError, RecoveryError
from .codec import crc_frame, crc_unframe, decode_root, encode_root
from .tracks import TrackManager

#: the two alternating root slots
ROOT_SLOTS = (0, 1)


def encode_root_track(fields: dict[str, Any]) -> bytes:
    """Frame a root record for a track: length, payload, CRC32
    (:func:`~repro.storage.codec.crc_frame`)."""
    return crc_frame(encode_root(fields))


def decode_root_track(data: bytes) -> dict[str, Any]:
    """Unframe and validate a root track; raises on any damage
    (:class:`CodecError` or :class:`ChecksumError`)."""
    return decode_root(crc_unframe(data)[0])


class CommitManager:
    """Writes track groups all-or-nothing via shadow tracks + root flip."""

    def __init__(self, track_manager: TrackManager) -> None:
        self.tracks = track_manager
        self._current_slot: Optional[int] = None
        self._current_epoch = 0
        #: replication hook, called after every published root with
        #: ``(epoch, root_slot, root_image, shadow_writes)`` — the exact
        #: framed root-track bytes and the exact shadow group, so a log
        #: replay reproduces the platter byte-for-byte.  A raising sink
        #: propagates out of :meth:`commit`: the root is durable locally,
        #: but the commit is *not acknowledged* until the record ships.
        self.log_sink = None

    @property
    def current_epoch(self) -> int:
        """Epoch of the last durable root (0 before any commit)."""
        return self._current_epoch

    def commit(self, shadow_writes: dict[int, bytes], root_fields: dict[str, Any]) -> int:
        """Safe-write *shadow_writes* then publish a new root; return its epoch.

        *shadow_writes* must target only freshly allocated tracks — the
        Track Manager refuses the reserved root slots, and callers uphold
        the never-overwrite-live-data discipline.  Any injected crash
        during the group or the root write leaves the previous commit as
        the recoverable state.
        """
        for slot in ROOT_SLOTS:
            if slot in shadow_writes:
                raise CodecError(f"shadow group may not include root slot {slot}")
        self.tracks.write_group(shadow_writes)
        next_epoch = self._current_epoch + 1
        fields = dict(root_fields)
        fields["epoch"] = next_epoch
        next_slot = self._pick_next_slot()
        root_image = encode_root_track(fields)
        self.tracks.disk.write_track(next_slot, root_image)
        self._current_slot = next_slot
        self._current_epoch = next_epoch
        if self.log_sink is not None:
            self.log_sink(next_epoch, next_slot, root_image, shadow_writes)
        return next_epoch

    def _pick_next_slot(self) -> int:
        if self._current_slot is None:
            return ROOT_SLOTS[0]
        return ROOT_SLOTS[1] if self._current_slot == ROOT_SLOTS[0] else ROOT_SLOTS[0]

    # -- recovery -----------------------------------------------------------

    def recover(self) -> dict[str, Any]:
        """Find the newest valid root; adopt its slot/epoch; return fields.

        Raises :class:`RecoveryError` when neither slot holds a valid
        root (a freshly formatted disk, or catastrophic damage).
        """
        best: Optional[tuple[int, int, dict[str, Any]]] = None
        for slot in ROOT_SLOTS:
            try:
                if not self.tracks.disk.is_written(slot):
                    continue
                fields = decode_root_track(self.tracks.disk.read_track(slot))
            except (CodecError, ChecksumError):
                continue
            if best is None or fields["epoch"] > best[0]:
                best = (fields["epoch"], slot, fields)
        if best is None:
            raise RecoveryError("no valid root record on disk")
        epoch, slot, fields = best
        self._current_slot = slot
        self._current_epoch = epoch
        return fields
