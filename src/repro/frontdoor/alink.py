"""The asynchronous host ↔ GemStone link.

The same wire contract as :mod:`repro.executor.link` — a duplex byte
stream with ``u32`` length-prefixed frames, so framing bugs surface
exactly as they would on a socket — but awaitable, with *flow control*:
each direction buffers at most ``capacity`` bytes, and a sender whose
peer has fallen behind parks in :meth:`AsyncLinkEnd.send` until the
reader drains.  That back-pressure is the outermost layer of the front
door's overload story: a client that will not read its responses
eventually stops being able to write requests.

Its seeded fault wrapper is :class:`repro.faults.link.FaultyAsyncLink`.
"""

from __future__ import annotations

import asyncio
import struct

from ..errors import ProtocolError
from ..executor.link import pop_frame

#: default per-direction buffer (bytes) before senders block
DEFAULT_CAPACITY = 256 * 1024


class _AsyncPipe:
    """One direction: a bounded byte stream with frame boundaries."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._buffer = bytearray()
        self._capacity = capacity
        self._closed = False
        self._readable = asyncio.Event()
        self._writable = asyncio.Event()
        self._writable.set()

    async def write(self, data: bytes) -> None:
        if self._closed:
            raise ProtocolError("link is closed")
        while len(self._buffer) >= self._capacity:
            self._writable.clear()
            await self._writable.wait()
            if self._closed:
                raise ProtocolError("link is closed")
        self._buffer += data
        self._readable.set()

    def _pop_frame(self) -> bytes | None:
        try:
            return pop_frame(self._buffer, self._closed)
        except ProtocolError:
            self.close()  # truncated or oversized: nothing more is readable
            raise

    async def read_frame(self) -> bytes | None:
        """The next complete frame; None once closed and drained."""
        while True:
            frame = self._pop_frame()
            if frame is not None:
                if len(self._buffer) < self._capacity:
                    self._writable.set()
                return frame
            if self._closed:
                return None
            self._readable.clear()
            await self._readable.wait()

    def poll_frame(self) -> bytes | None:
        """Non-blocking :meth:`read_frame` (None = nothing complete)."""
        frame = self._pop_frame()
        if frame is not None and len(self._buffer) < self._capacity:
            self._writable.set()
        return frame

    def close(self) -> None:
        self._closed = True
        # wake both sides so parked coroutines observe the close
        self._readable.set()
        self._writable.set()

    @property
    def closed(self) -> bool:
        return self._closed


class AsyncLinkEnd:
    """One endpoint of the awaitable duplex link."""

    def __init__(self, outgoing: _AsyncPipe, incoming: _AsyncPipe) -> None:
        self._out = outgoing
        self._in = incoming
        self.frames_sent = 0
        self.bytes_sent = 0

    async def send(self, frame: bytes) -> None:
        """Send one frame; parks when the peer's buffer is full."""
        await self._out.write(struct.pack("<I", len(frame)) + frame)
        self.frames_sent += 1
        self.bytes_sent += 4 + len(frame)

    async def receive(self) -> bytes | None:
        """Await the next complete frame; None once the peer closed."""
        return await self._in.read_frame()

    def poll(self) -> bytes | None:
        """The next complete frame if one is already buffered."""
        return self._in.poll_frame()

    def close(self) -> None:
        """Close the outgoing direction (wakes a parked peer reader)."""
        self._out.close()

    def abort(self) -> None:
        """Hard-close both directions (a socket RST's in-memory twin)."""
        self._out.close()
        self._in.close()

    @property
    def peer_closed(self) -> bool:
        return self._in.closed


def make_async_link(
    capacity: int = DEFAULT_CAPACITY,
) -> tuple[AsyncLinkEnd, AsyncLinkEnd]:
    """A connected (host_end, gem_end) pair of async endpoints."""
    a_to_b = _AsyncPipe(capacity)
    b_to_a = _AsyncPipe(capacity)
    return AsyncLinkEnd(a_to_b, b_to_a), AsyncLinkEnd(b_to_a, a_to_b)
