"""A file-backed platter: ``SimulatedDisk`` semantics, OS-durable slots.

The simulated disk dies with its process, which is exactly the wrong
property for ``repro.shard.procs``' SIGKILL sweeps: a worker killed
mid-2PC must come back with its prepared state intact.  ``FileDisk``
keeps the in-memory model (whole-track I/O, per-track CRC32, the same
crash/corruption fault hooks) and additionally mirrors every track
write into one file via ``os.pwritev`` on a raw descriptor — a single
direct syscall per track, no user-space buffering — so the platter
state a SIGKILLed process leaves behind is whatever tracks it had
fully written, never a torn half-slot of Python buffering.

File layout::

    header : magic "RPFD" | version u32 | track_count u32 | track_size u32
    slot i : crc32 u32 | written u32 | track_size bytes

``open`` loads every written slot back into memory; a slot whose bytes
do not match its recorded CRC (a torn write at kill time) loads with
the stale CRC so ``read_track`` raises the ordinary ``ChecksumError``
and the recovery stack treats it exactly like any corrupt medium.
"""

from __future__ import annotations

import os
import struct

from ..errors import DiskError
from .disk import DiskGeometry, SimulatedDisk

_MAGIC = b"RPFD"
_VERSION = 1
_HEADER = struct.Struct("<4sIII")
_SLOT = struct.Struct("<II")


class FileDisk(SimulatedDisk):
    """A simulated disk whose tracks survive the process."""

    def __init__(self, path: str, geometry: DiskGeometry, fd: int) -> None:
        super().__init__(geometry)
        self.path = path
        self._fd: int | None = fd
        self._slot_size = _SLOT.size + geometry.track_size

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, path: str, geometry: DiskGeometry | None = None) -> "FileDisk":
        """Format a fresh platter file (truncating any existing one)."""
        geometry = geometry or DiskGeometry()
        fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o644)
        os.pwrite(
            fd,
            _HEADER.pack(_MAGIC, _VERSION, geometry.track_count, geometry.track_size),
            0,
        )
        return cls(path, geometry, fd)

    @classmethod
    def open(cls, path: str) -> "FileDisk":
        """Reopen an existing platter, loading every written slot."""
        fd = os.open(path, os.O_RDWR)
        header = os.pread(fd, _HEADER.size, 0)
        if len(header) < _HEADER.size:
            os.close(fd)
            raise DiskError(f"{path} is not a platter file (short header)")
        magic, version, track_count, track_size = _HEADER.unpack(header)
        if magic != _MAGIC or version != _VERSION:
            os.close(fd)
            raise DiskError(f"{path} is not a version-{_VERSION} platter file")
        geometry = DiskGeometry(track_count=track_count, track_size=track_size)
        disk = cls(path, geometry, fd)
        for track in range(track_count):
            slot = os.pread(fd, disk._slot_size, disk._slot_offset(track))
            if len(slot) < disk._slot_size:
                break  # sparse tail: nothing past here was ever written
            stored_crc, written = _SLOT.unpack_from(slot, 0)
            if not written:
                continue
            data = slot[_SLOT.size :]
            # a torn slot keeps its stored (mismatching) CRC: read_track
            # then raises ChecksumError, the normal bad-medium signal
            disk._tracks[track] = bytes(data)
            disk._checksums[track] = stored_crc
        return disk

    # -- the durable mirror --------------------------------------------------

    def write_track(self, track: int, data: bytes) -> None:
        super().write_track(track, data)
        if self._fd is None:
            raise DiskError(f"platter file {self.path} is closed")
        # the padded image and its CRC as the simulated disk just stored
        # them; header and track go down in one gathered write
        os.pwritev(
            self._fd,
            (_SLOT.pack(self._checksums[track], 1), self._tracks[track]),
            self._slot_offset(track),
        )

    def _slot_offset(self, track: int) -> int:
        return _HEADER.size + track * self._slot_size

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the descriptor (contents stay on disk)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __del__(self) -> None:
        try:
            self.close()
        except OSError:
            pass


__all__ = ["FileDisk"]
