"""Asyncio TCP transport: the ``AsyncLinkEnd`` surface over a socket.

``StreamLink`` lets ``FrontDoor.serve`` run unchanged against a real
connection, and ``serve_frontdoor`` binds a door to a port, one served
link per accepted client.  Clean EOF is "peer closed" (``receive() ->
None``), EOF mid-frame is the same ``ProtocolError("truncated frame on
closed link")`` the in-memory pipes raise, and a dial that cannot
complete raises ``LinkTimeout``.

The link *is* the connection's ``asyncio.Protocol``: the loop hands it
each read as it lands, ``data_received`` cuts that into frames, and
``receive`` takes the next one — already there, more often than not,
so the reader does not park — while ``send`` writes straight to the
transport and waits only if the transport has asked writers to pause.
Flow control runs both ways: the link pauses its transport's reads
while too many whole frames sit untaken (``_UNREAD_HIGH``).
"""

from __future__ import annotations

import asyncio
from collections import deque

from ..errors import LinkTimeout, ProtocolError
from ..executor import protocol
from ..executor.link import framed, pop_frame
from .tcp import traffic_counters

#: bytes asked of the socket per read.  asyncio's selector transport
#: asks for 256 KiB and shrinks the result, and an allocation that size
#: is above glibc's mmap threshold: each read then costs an mmap, two
#: page faults and an munmap (about 30 us of a 180 us point read)
#: unless some unrelated earlier free happened to raise the threshold —
#: which flips with any change to what the process has loaded.  Frames
#: here are tens of bytes to a few KiB; 64 KiB stays on the heap.
_RECV_SIZE = 64 * 1024

#: whole frames nobody has taken yet, in bytes, above which the link
#: stops reading its socket (what ``StreamReader`` did at twice its
#: 64 KiB limit): the kernel's window then fills and the peer's sends
#: stall, so a client that pipelines without reading its answers is
#: slowed to the pace of the server's reader instead of being buffered
#: without bound.  A frame still arriving is not counted — only its
#: sender can finish it, and ``MAX_FRAME_BYTES`` bounds it.
_UNREAD_HIGH = 2 * _RECV_SIZE


class StreamLink(asyncio.Protocol):
    """One endpoint of a duplex link over an asyncio TCP transport.

    Built by the loop's ``create_connection`` / ``create_server`` as the
    connection's protocol; *on_connect(link)* runs once the transport is
    attached (how ``serve_frontdoor`` starts serving it).
    """

    def __init__(self, *, registry=None, on_connect=None) -> None:
        self.registry = registry
        self._on_connect = on_connect
        self._transport: asyncio.Transport | None = None
        #: the bytes of a frame that has not fully arrived
        self._buffer = bytearray()
        #: whole frames nobody has asked for yet, and their bytes on
        #: the wire; reading pauses while that is above ``_UNREAD_HIGH``
        self._frames: deque[bytes] = deque()
        self._unread = 0
        self._reading_paused = False
        #: what a parked ``receive`` / a paused ``write`` is waiting on
        self._readable: asyncio.Future | None = None
        self._writable: asyncio.Future | None = None
        self._eof = False
        self._lost = False
        self._refused: ProtocolError | None = None
        self._peer_closed = False
        self._closed = False
        self.frames_sent = 0
        self.bytes_sent = 0
        self.frames_received = 0
        self.bytes_received = 0
        self._sent, self._received = traffic_counters(registry)

    # -- what the loop calls ---------------------------------------------

    def connection_made(self, transport) -> None:
        self._transport = transport
        if getattr(transport, "max_size", 0) > _RECV_SIZE:
            transport.max_size = _RECV_SIZE
        if self._on_connect is not None:
            self._on_connect(self)

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        buffer += data
        try:
            frame = pop_frame(buffer, False)
            while frame is not None:
                self._frames.append(frame)
                self._unread += 4 + len(frame)
                frame = pop_frame(buffer, False)
        except ProtocolError as error:
            # an oversized length: the stream cannot be re-synchronised
            self._refused = error
            self._transport.abort()
        if self._unread > _UNREAD_HIGH and not self._reading_paused:
            self._reading_paused = True
            self._transport.pause_reading()
        self._wake(self._readable)

    def eof_received(self) -> bool:
        self._eof = True
        self._wake(self._readable)
        return True  # half-closed: what we still owe the peer can be written

    def connection_lost(self, exc) -> None:
        self._eof = self._lost = True
        self._wake(self._readable)
        self._wake(self._writable)

    def pause_writing(self) -> None:
        self._writable = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        self._wake(self._writable)
        self._writable = None

    @staticmethod
    def _wake(waiter) -> None:
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    # -- the link surface --------------------------------------------------

    async def write(self, data: bytes) -> None:
        """Put raw bytes on the wire, below the framing (``send``'s
        body; ``FaultyAsyncLink`` cuts and dribbles frames with it)."""
        if self._closed or self._lost:
            self._closed = True
            raise ProtocolError("link is closed")
        transport = self._transport
        transport.write(data)
        if self._writable is not None:
            await self._writable  # the transport's buffer is over its high mark
        elif transport.is_closing():
            await asyncio.sleep(0)  # let a pending connection_lost land
        if self._lost:
            self._closed = True
            raise ProtocolError("link is closed")

    async def send(self, frame: bytes) -> None:
        """Send one length-prefixed frame (flow-controlled)."""
        size = 4 + len(frame)
        await self.write(framed(frame))
        self.frames_sent += 1
        self.bytes_sent += size
        if self._sent is not None:
            self._sent[0].inc()
            self._sent[1].inc(size)

    def poll(self) -> bytes | None:
        """The next complete frame if one has already arrived."""
        if self._closed or not self._frames:
            return None
        frame = self._frames.popleft()
        size = 4 + len(frame)
        self._unread -= size
        if self._reading_paused and self._unread <= _UNREAD_HIGH:
            self._reading_paused = False
            self._transport.resume_reading()
        self.frames_received += 1
        self.bytes_received += size
        if self._received is not None:
            self._received[0].inc()
            self._received[1].inc(size)
        return frame

    async def receive(self) -> bytes | None:
        """Receive the next complete frame; None once the peer closes."""
        while not (self._peer_closed or self._closed):
            if self._frames:
                return self.poll()
            if self._refused is not None:
                self._peer_closed = self._closed = True
                raise self._refused
            if self._eof:
                self._peer_closed = True
                if self._buffer:
                    raise ProtocolError("truncated frame on closed link")
                return None
            self._readable = asyncio.get_running_loop().create_future()
            try:
                await self._readable
            finally:
                self._readable = None
        return None

    def close(self) -> None:
        """Close the outgoing direction (FIN); reads may still drain."""
        self._closed = True
        if self._transport is not None:
            self._transport.close()
        self._wake(self._readable)

    def abort(self) -> None:
        """Hard-close both directions immediately (RST, nothing flushed)."""
        self._closed = True
        self._peer_closed = True
        if self._transport is not None:
            self._transport.abort()
        self._wake(self._readable)

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
    loop = asyncio.get_running_loop()
    try:
        _, link = await asyncio.wait_for(
            loop.create_connection(lambda: StreamLink(registry=registry), host, port),
            timeout,
        )
    except (asyncio.TimeoutError, ConnectionRefusedError, OSError) as exc:
        raise LinkTimeout(f"connect to {host}:{port} failed: {exc}") from exc
    if registry is not None:
        registry.inc("net.connections")
    return link


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
    wrapper — e.g. ``lambda link: repro.faults.FaultyAsyncLink(link,
    plan)``, one plan across every reconnection — before the HELLO, so
    even the handshake rides the faulty wire.
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
    finish when their clients hang up or the door closes.
    """

    def serve(link: StreamLink) -> None:
        # however the task ends — cancelled while still waiting for a
        # HELLO included — the socket goes with it
        door.spawn(link).add_done_callback(lambda _task: link.close())

    def accept() -> StreamLink:
        if registry is not None:
            registry.inc("net.connections")
        return StreamLink(registry=registry, on_connect=serve)

    return await asyncio.get_running_loop().create_server(accept, host, port)


def server_port(server: asyncio.base_events.Server) -> int:
    """The port a ``serve_frontdoor`` server is listening on."""
    return server.sockets[0].getsockname()[1]
