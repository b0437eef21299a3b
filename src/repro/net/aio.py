"""Asyncio TCP transport: the ``AsyncLinkEnd`` surface over a socket.

``StreamLink`` lets ``FrontDoor.serve`` run unchanged against a real
connection, and ``serve_frontdoor`` binds a door to a port with one
``asyncio.start_server`` callback per client.  Clean EOF is "peer
closed" (``receive() -> None``), EOF mid-frame is the same
``ProtocolError("truncated frame on closed link")`` the in-memory pipes
raise, and a dial that cannot complete raises ``LinkTimeout``.
"""

from __future__ import annotations

import asyncio
import struct

from ..errors import LinkTimeout, ProtocolError
from ..executor import protocol

_HEADER = struct.Struct("<I")

#: bytes asked of the socket per read.  asyncio's selector transport
#: asks for 256 KiB and shrinks the result, and an allocation that size
#: is above glibc's mmap threshold: each read then costs an mmap, two
#: page faults and an munmap (about 30 us of a 180 us point read)
#: unless some unrelated earlier free happened to raise the threshold —
#: which flips with any change to what the process has loaded.  Frames
#: here are tens of bytes to a few KiB; 64 KiB stays on the heap.
_RECV_SIZE = 64 * 1024


class StreamLink:
    """One endpoint of a duplex link over an asyncio TCP stream."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        registry=None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        transport = writer.transport
        if getattr(transport, "max_size", 0) > _RECV_SIZE:
            transport.max_size = _RECV_SIZE
        self.registry = registry
        self._peer_closed = False
        self._closed = False
        self.frames_sent = 0
        self.bytes_sent = 0
        self.frames_received = 0
        self.bytes_received = 0

    async def send(self, frame: bytes) -> None:
        """Send one length-prefixed frame (drained before returning)."""
        if self._closed:
            raise ProtocolError("link is closed")
        data = _HEADER.pack(len(frame)) + frame
        try:
            self._writer.write(data)
            await self._writer.drain()
        except (ConnectionError, RuntimeError, OSError) as exc:
            self._closed = True
            raise ProtocolError("link is closed") from exc
        self.frames_sent += 1
        self.bytes_sent += len(data)
        if self.registry is not None:
            self.registry.inc("net.frames_sent")
            self.registry.inc("net.bytes_sent", len(data))

    async def receive(self) -> bytes | None:
        """Receive the next complete frame; None once the peer closes."""
        if self._peer_closed or self._closed:
            return None
        try:
            header = await self._reader.readexactly(4)
        except asyncio.IncompleteReadError as exc:
            self._peer_closed = True
            if exc.partial:
                raise ProtocolError("truncated frame on closed link") from exc
            return None
        except (ConnectionError, OSError):
            self._peer_closed = True
            return None
        (length,) = _HEADER.unpack(header)
        try:
            frame = await self._reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            self._peer_closed = True
            raise ProtocolError("truncated frame on closed link") from exc
        except (ConnectionError, OSError):
            self._peer_closed = True
            raise ProtocolError("truncated frame on closed link") from None
        self.frames_received += 1
        self.bytes_received += 4 + length
        if self.registry is not None:
            self.registry.inc("net.frames_received")
            self.registry.inc("net.bytes_received", 4 + length)
        return frame

    def close(self) -> None:
        """Close the outgoing direction (FIN); reads may still drain."""
        self._closed = True
        try:
            self._writer.close()
        except (ConnectionError, RuntimeError, OSError):
            pass

    def abort(self) -> None:
        """Hard-close both directions immediately (RST, nothing flushed)."""
        self._closed = True
        self._peer_closed = True
        try:
            transport = self._writer.transport
            if transport is not None:
                transport.abort()
        except (ConnectionError, RuntimeError, OSError):
            pass

    @property
    def peer_closed(self) -> bool:
        return self._peer_closed or self._closed


async def open_stream_link(
    host: str,
    port: int,
    *,
    timeout: float = 5.0,
    registry=None,
) -> StreamLink:
    """Dial a listening front door, or raise ``LinkTimeout``."""
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
    except (asyncio.TimeoutError, ConnectionRefusedError, OSError) as exc:
        raise LinkTimeout(f"connect to {host}:{port} failed: {exc}") from exc
    if registry is not None:
        registry.inc("net.connections")
    return StreamLink(reader, writer, registry=registry)


def stream_link_factory(
    host: str,
    port: int,
    token: str,
    *,
    timeout: float = 5.0,
    registry=None,
    wrap=None,
):
    """Build an async link factory that dials and sends HELLO(*token*).

    The factory is what ``AsyncHostConnection`` calls on every
    (re)connect, so each new connection re-handshakes into the same
    server-side session.  *wrap* (link → link) interposes a transport
    wrapper — e.g. ``repro.faults.FaultyTransport`` — before the HELLO,
    so even the handshake rides the faulty wire.
    """

    async def factory() -> StreamLink:
        link = await open_stream_link(host, port, timeout=timeout, registry=registry)
        if wrap is not None:
            link = wrap(link)
        await link.send(protocol.encode_hello(token))
        return link

    return factory


async def serve_frontdoor(
    door,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    registry=None,
) -> asyncio.base_events.Server:
    """Bind *door* to a TCP port; every accepted connection is served.

    Returns the ``asyncio.Server``; ``server_port(server)`` reads the
    bound port (handy with ``port=0``).  Close with ``server.close()``
    followed by ``await server.wait_closed()``; in-flight connections
    finish when their clients hang up.
    """

    async def _serve_connection(reader, writer) -> None:
        if registry is not None:
            registry.inc("net.connections")
        link = StreamLink(reader, writer, registry=registry)
        try:
            await door.serve(link)
        except asyncio.CancelledError:
            pass  # loop teardown with the connection still open
        finally:
            link.close()

    return await asyncio.start_server(_serve_connection, host, port)


def server_port(server: asyncio.base_events.Server) -> int:
    """The port a ``serve_frontdoor`` server is listening on."""
    return server.sockets[0].getsockname()[1]
