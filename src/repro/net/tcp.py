"""Blocking TCP transport framing SEQ envelopes over real sockets.

``TcpLinkEnd`` mirrors ``repro.executor.link.LinkEnd`` exactly — the
same u32 little-endian length prefix, the same ``receive() -> None``
"nothing waiting" contract, and the same truncation semantics: a
partial frame on a *live* connection stays buffered, a partial frame on
a *closed* connection raises ``ProtocolError("truncated frame on closed
link")``.  The one new degree of freedom a socket adds is time, so
``receive`` takes a timeout budget (``None`` → the link's default) and
maps it to the existing taxonomy: an expired read budget returns
``None`` (the caller's retry loop decides), a connect that never
completes raises ``LinkTimeout``.
"""

from __future__ import annotations

import socket
import time

from ..errors import LinkTimeout, ProtocolError
from ..executor.link import framed, pop_frame

#: default per-receive budget, seconds; small so retry loops stay live
DEFAULT_RECEIVE_TIMEOUT = 0.25

#: default send budget, seconds — only hit when the peer's socket
#: buffer is full and it has stopped draining (a wedged peer)
DEFAULT_SEND_TIMEOUT = 10.0


def traffic_counters(registry):
    """The ``net.*`` traffic counters of *registry* as ((frames sent,
    bytes sent), (frames received, bytes received)) handles, or (None,
    None) without one.  Resolved once per link end: a name lookup under
    the registry's lock per frame was most of what counting cost."""
    if registry is None:
        return None, None
    return (
        (registry.counter("net.frames_sent"), registry.counter("net.bytes_sent")),
        (registry.counter("net.frames_received"), registry.counter("net.bytes_received")),
    )


class TcpLinkEnd:
    """One endpoint of a duplex link over a connected TCP socket."""

    def __init__(
        self,
        sock: socket.socket,
        *,
        receive_timeout: float = DEFAULT_RECEIVE_TIMEOUT,
        send_timeout: float = DEFAULT_SEND_TIMEOUT,
        registry=None,
    ) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self.receive_timeout = receive_timeout
        self.send_timeout = send_timeout
        self.registry = registry
        self._buffer = bytearray()
        self._peer_closed = False
        self._closed = False
        #: the timeout the socket is set to now: a send or receive under
        #: an unchanged budget does not set it again
        self._armed: float | None = None
        self._arm(receive_timeout)
        self.frames_sent = 0
        self.bytes_sent = 0
        self.frames_received = 0
        self.bytes_received = 0
        self._sent_at: float | None = None
        self._sent, self._received = traffic_counters(registry)
        self._rtt = registry.histogram("net.rtt_ms") if registry is not None else None

    def _arm(self, timeout: float) -> None:
        if timeout != self._armed:
            self._sock.settimeout(timeout)
            self._armed = timeout

    # -- sending ---------------------------------------------------------

    def send(self, frame: bytes) -> None:
        """Send one frame within the send budget, surviving partial writes.

        ``socket.send`` under a timeout may deliver a prefix before
        raising, so the loop keeps what is still owed and retries it; a
        peer reset at any offset maps to the in-memory link's
        ``ProtocolError("link is closed")``.  A frame nearly always
        fits the kernel's buffer, and then this is one ``send`` under
        the send budget itself; the clock is consulted again only for
        a remainder.
        """
        if self._closed:
            raise ProtocolError("link is closed")
        data = framed(frame)
        deadline = time.monotonic() + self.send_timeout
        self._arm(self.send_timeout)
        owed = data
        while True:
            try:
                sent = self._sock.send(owed)
            except socket.timeout:
                sent = 0
            except OSError as exc:
                self._teardown()
                raise ProtocolError("link is closed") from exc
            if sent == len(owed):
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._teardown()
                raise LinkTimeout("send stalled: peer stopped draining the link")
            self._arm(remaining)
            owed = memoryview(owed)[sent:]
        self.frames_sent += 1
        self.bytes_sent += len(data)
        if self._rtt is not None and self._sent_at is None:
            self._sent_at = time.monotonic()
        if self._sent is not None:
            self._sent[0].inc()
            self._sent[1].inc(len(data))

    # -- receiving -------------------------------------------------------

    def receive(self, timeout: float | None = None) -> bytes | None:
        """Receive the next complete frame, or None when the budget expires.

        Partial reads are the normal case on TCP: bytes accumulate in
        the buffer across calls until a whole length-prefixed frame is
        present.  EOF with an empty buffer marks the peer closed and
        returns None; EOF mid-frame is a truncated link.  The first
        read waits the whole budget on the socket's own timeout; the
        clock is only consulted once a read has ended mid-frame.
        """
        budget = self.receive_timeout if timeout is None else timeout
        deadline = None
        while True:
            frame = self._pop_frame()
            if frame is not None:
                return frame
            if self._peer_closed or self._closed:
                return None
            if deadline is None:
                remaining = budget
            else:
                remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            self._arm(max(remaining, 0.001))
            try:
                chunk = self._sock.recv(65536)
            except socket.timeout:
                return None
            except OSError:  # a reset is an EOF that lost its manners
                chunk = b""
            if not chunk:
                self._peer_closed = True
                if self._buffer:
                    raise ProtocolError("truncated frame on closed link")
                return None
            self._buffer += chunk
            if deadline is None:
                deadline = time.monotonic() + budget

    def _pop_frame(self) -> bytes | None:
        if not self._buffer:
            return None
        try:
            frame = pop_frame(self._buffer, self._peer_closed)
        except ProtocolError:
            self._teardown()  # truncated or oversized: unreadable from here on
            raise
        if frame is None:
            return None
        self.frames_received += 1
        self.bytes_received += 4 + len(frame)
        if self._sent_at is not None:
            self._rtt.observe((time.monotonic() - self._sent_at) * 1000.0)
            self._sent_at = None
        if self._received is not None:
            self._received[0].inc()
            self._received[1].inc(4 + len(frame))
        return frame

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Close the link (both directions — TCP offers no useful half)."""
        self._teardown()

    def _teardown(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass

    @property
    def peer_closed(self) -> bool:
        """True once the peer's outgoing direction has hit EOF."""
        return self._peer_closed or self._closed


def dial(
    host: str,
    port: int,
    *,
    timeout: float = 5.0,
    receive_timeout: float = DEFAULT_RECEIVE_TIMEOUT,
    registry=None,
) -> TcpLinkEnd:
    """Connect to a listening link endpoint, or raise ``LinkTimeout``."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except (socket.timeout, ConnectionRefusedError, OSError) as exc:
        raise LinkTimeout(f"connect to {host}:{port} failed: {exc}") from exc
    if registry is not None:
        registry.inc("net.connections")
    return TcpLinkEnd(sock, receive_timeout=receive_timeout, registry=registry)


class Listener:
    """A bound TCP listener handing out ``TcpLinkEnd``s per accept."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        backlog: int = 64,
        receive_timeout: float = DEFAULT_RECEIVE_TIMEOUT,
        registry=None,
    ) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(backlog)
        self.host, self.port = self._sock.getsockname()[:2]
        self.receive_timeout = receive_timeout
        self.registry = registry
        self._closed = False

    def accept(self, timeout: float | None = 0.5) -> TcpLinkEnd | None:
        """Accept one connection, or None when the wait budget expires."""
        if self._closed:
            return None
        self._sock.settimeout(timeout)
        try:
            sock, _ = self._sock.accept()
        except socket.timeout:
            return None
        except OSError:
            return None
        if self.registry is not None:
            self.registry.inc("net.connections")
        return TcpLinkEnd(sock, receive_timeout=self.receive_timeout, registry=self.registry)

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass
