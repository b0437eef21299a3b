"""The host ↔ GemStone network link.

Section 6: "our present implementation has GemStone running on its own
hardware and communicating to user interface programs on host machines
through a network link."  The substitute (DESIGN.md section 2) is an
in-process, byte-framed duplex channel: each direction is a queue of
length-prefixed frames, so framing bugs surface exactly as they would on
a socket.
"""

from __future__ import annotations

import struct

from ..errors import ProtocolError

#: the u32 length prefix: written by :func:`framed`, read by :func:`pop_frame`
_HEADER = struct.Struct("<I")

#: the longest frame any link end will buffer.  The length prefix is
#: four bytes an unauthenticated peer chooses, so without a bound a
#: header of ``ff ff ff ff`` makes the receiver buffer 4 GiB.  The
#: largest legitimate frame is a ``repro.dr`` SNAPSHOT: the zero-trimmed
#: images of the tracks a platter has *written*, so never more than the
#: platter.  Measured: 1.2 KB in the DR soak and ``tests/dr`` (a store
#: just created), 0.56 MiB for the fullest store the benchmark loads
#: (``oltp_narrow_cold``, a 16 384 x 4 KiB = 64 MiB platter); the kill
#: sweeps and the check oracles stay under 2 KB a frame.  The bound is
#: twice that platter written to its last track.  The one larger
#: platter in the repo (``bench_st80_limits``: 65 536 x 4 KiB = 256 MiB,
#: about 2 MiB of it written) never crosses a link; a store that had
#: written more than the bound could not be bootstrapped in one frame
#: and would be refused with the typed error.  Fixed, not an option.
MAX_FRAME_BYTES = 128 * 1024 * 1024


def framed(frame: bytes) -> bytes:
    """*frame* as every link end and fault wrapper puts it on the wire."""
    return _HEADER.pack(len(frame)) + frame


def pop_frame(buffer: bytearray, closed: bool) -> bytes | None:
    """Pop one complete length-prefixed frame off *buffer*, or None.

    The one framing rule every link end shares (in-memory, blocking
    TCP, asyncio TCP).  A frame whose body has not fully arrived is
    *not* an error — the sender may still be streaming it — so the
    partial bytes stay buffered and None is returned.  Only a *closed*
    stream with leftover partial bytes is truly truncated: no more
    bytes can ever arrive.  A length above :data:`MAX_FRAME_BYTES` is
    refused before a byte of the body is buffered; the caller closes
    the link, since the stream cannot be re-synchronised.
    """
    if len(buffer) < 4:
        if buffer and closed:
            raise ProtocolError("truncated frame on closed link")
        return None
    (length,) = _HEADER.unpack_from(buffer, 0)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    end = 4 + length
    if len(buffer) < end:
        if closed:
            raise ProtocolError("truncated frame on closed link")
        return None
    frame = bytes(buffer[4:end])
    del buffer[:end]
    return frame


class _Pipe:
    """One direction of the link: a byte stream with frame boundaries."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._closed = False

    def write(self, data: bytes) -> None:
        if self._closed:
            raise ProtocolError("link is closed")
        self._buffer += data

    def read_frame(self) -> bytes | None:
        """Pop one complete frame, or None if none is buffered
        (:func:`pop_frame`); an oversized length closes the pipe."""
        if not self._buffer:
            return None
        try:
            return pop_frame(self._buffer, self._closed)
        except ProtocolError:
            self._closed = True
            raise

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed


class LinkEnd:
    """One endpoint of the duplex link."""

    def __init__(self, outgoing: _Pipe, incoming: _Pipe) -> None:
        self._out = outgoing
        self._in = incoming
        self.frames_sent = 0
        self.bytes_sent = 0

    def send(self, frame: bytes) -> None:
        """Send one frame (length-prefixed on the wire)."""
        self._out.write(framed(frame))
        self.frames_sent += 1
        self.bytes_sent += 4 + len(frame)

    def receive(self) -> bytes | None:
        """Receive the next complete frame, or None if none waiting."""
        return self._in.read_frame()

    def close(self) -> None:
        """Close the outgoing direction."""
        self._out.close()

    @property
    def peer_closed(self) -> bool:
        """True once the peer closed its outgoing direction."""
        return self._in.closed


def make_link() -> tuple[LinkEnd, LinkEnd]:
    """Create a connected (host_end, gem_end) pair."""
    a_to_b = _Pipe()
    b_to_a = _Pipe()
    return LinkEnd(a_to_b, b_to_a), LinkEnd(b_to_a, a_to_b)
