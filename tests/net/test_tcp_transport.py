"""Framing and failure semantics of the blocking TCP transport.

``TcpLinkEnd`` must honour the in-memory ``LinkEnd`` contract on a real
socket: length-prefixed frames survive partial reads and writes, an
expired receive budget returns ``None``, clean EOF is "peer closed",
EOF mid-frame is the same ``ProtocolError("truncated frame on closed
link")``, and a dial that cannot complete is a typed ``LinkTimeout``.
On top of that, the synchronous ``TcpHostConnection`` must run the full
session protocol — HELLO resume included — against a front door served
on a background event loop, and survive its transport being yanked.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading
import time

import pytest

from repro.db import GemStone
from repro.errors import LinkTimeout, ProtocolError
from repro.frontdoor.server import FrontDoor
from repro.govern.admission import AdmissionController
from repro.net import (
    Listener,
    TcpHostConnection,
    dial,
    serve_frontdoor,
    server_port,
)
from repro.obs import MetricsRegistry

_HEADER = struct.Struct("<I")


def _pair(registry=None):
    """A connected (client, server) pair of real loopback link ends."""
    listener = Listener(receive_timeout=0.2, registry=registry)
    try:
        client = dial(
            "127.0.0.1", listener.port,
            receive_timeout=0.2, registry=registry,
        )
        server = listener.accept(timeout=2.0)
        assert server is not None
    finally:
        listener.close()
    return client, server


class TestFraming:
    def test_roundtrip_both_ways_including_empty_and_large(self):
        client, server = _pair()
        try:
            frames = [b"", b"x", b"hello " * 3, b"\x00" * 70_000]
            for frame in frames:
                client.send(frame)
                assert server.receive(timeout=2.0) == frame
            server.send(b"reply")
            assert client.receive(timeout=2.0) == b"reply"
            assert client.frames_sent == len(frames)
            assert server.frames_received == len(frames)
        finally:
            client.close()
            server.close()

    def test_pipelined_frames_arrive_in_order(self):
        client, server = _pair()
        try:
            for n in range(50):
                client.send(f"frame-{n}".encode())
            for n in range(50):
                assert server.receive(timeout=2.0) == f"frame-{n}".encode()
        finally:
            client.close()
            server.close()

    def test_registry_counts_connections_frames_and_bytes(self):
        registry = MetricsRegistry()
        client, server = _pair(registry=registry)
        try:
            client.send(b"abcd")
            assert server.receive(timeout=2.0) == b"abcd"
        finally:
            client.close()
            server.close()
        counters = registry.snapshot()["counters"]
        assert counters["net.connections"] == 2  # dial + accept
        assert counters["net.frames_sent"] == 1
        assert counters["net.frames_received"] == 1
        assert counters["net.bytes_sent"] == 8  # 4-byte header + payload
        assert counters["net.bytes_received"] == 8


class TestFailureSemantics:
    def test_expired_receive_budget_returns_none(self):
        client, server = _pair()
        try:
            assert server.receive(timeout=0.05) is None
            assert not server.peer_closed  # budget expiry is not death
        finally:
            client.close()
            server.close()

    def test_clean_eof_is_peer_closed_not_an_error(self):
        client, server = _pair()
        try:
            client.close()
            assert server.receive(timeout=2.0) is None
            assert server.peer_closed
        finally:
            server.close()

    def test_eof_mid_frame_raises_truncated(self):
        listener = Listener(receive_timeout=0.2)
        raw = socket.create_connection(("127.0.0.1", listener.port))
        server = listener.accept(timeout=2.0)
        listener.close()
        try:
            # a header promising 10 bytes, then only 3, then death
            raw.sendall(_HEADER.pack(10) + b"abc")
            raw.close()
            with pytest.raises(ProtocolError, match="truncated"):
                server.receive(timeout=2.0)
        finally:
            server.close()

    def test_partial_frame_on_live_link_stays_buffered(self):
        listener = Listener(receive_timeout=0.2)
        raw = socket.create_connection(("127.0.0.1", listener.port))
        server = listener.accept(timeout=2.0)
        listener.close()
        try:
            data = _HEADER.pack(5) + b"whole"
            raw.sendall(data[:4])
            assert server.receive(timeout=0.1) is None  # still waiting
            raw.sendall(data[4:])
            assert server.receive(timeout=2.0) == b"whole"
        finally:
            raw.close()
            server.close()

    def test_dial_refused_raises_link_timeout(self):
        # bind-then-close guarantees a port nothing is listening on
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(LinkTimeout):
            dial("127.0.0.1", port, timeout=1.0)

    def test_a_stalled_send_is_detected_within_the_send_budget(self):
        """Whatever budget the last receive left on the socket, a peer
        that has stopped draining is given the send budget, not more."""
        client, server = _pair()
        try:
            client.send_timeout = 0.3
            block = b"x" * (1 << 20)
            stalled_for = None
            for _ in range(64):  # loopback's buffers hold a few MiB
                client._arm(3.0)  # what a caller's long receive leaves armed
                started = time.monotonic()
                try:
                    client.send(block)
                except LinkTimeout as error:
                    assert "send stalled" in str(error)
                    stalled_for = time.monotonic() - started
                    break
            assert stalled_for is not None, "64 MiB sent with nobody reading"
            assert 0.3 <= stalled_for < 1.0
            assert client.peer_closed
        finally:
            client.close()
            server.close()

    def test_send_on_closed_link_raises_protocol_error(self):
        client, server = _pair()
        server.close()
        client.close()
        with pytest.raises(ProtocolError, match="closed"):
            client.send(b"late")


class _DoorServer:
    """A front door served on its own event-loop thread (sync tests)."""

    def __init__(self, admission=None) -> None:
        self.database = GemStone.create(track_count=2_048, track_size=1024)
        self.door = FrontDoor(self.database, admission=admission)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, daemon=True
        )
        self._thread.start()
        self.server = asyncio.run_coroutine_threadsafe(
            serve_frontdoor(
                self.door, registry=self.database.obs.registry
            ),
            self._loop,
        ).result(5)
        self.port = server_port(self.server)

    def close(self) -> None:
        async def _shutdown():
            self.server.close()
            await self.server.wait_closed()
            await self.door.close()

        asyncio.run_coroutine_threadsafe(_shutdown(), self._loop).result(5)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(5)
        self._loop.close()


class TestSyncClientOverTcp:
    def test_full_session_over_a_real_socket(self):
        served = _DoorServer()
        try:
            connection = TcpHostConnection("127.0.0.1", served.port)
            connection.login("DataCurator", "swordfish")
            assert connection.execute("3 + 4")[0] == 7
            connection.execute("World!tcp := 'wired'")
            assert connection.commit() is not None
            assert connection.execute("World!tcp")[0] == "wired"
            connection.logout()
            connection.close()
        finally:
            served.close()

    def test_reconnect_resumes_the_same_session(self):
        """Yank the transport between requests: the next request
        re-dials, the HELLO token rebinds the same executor, and
        uncommitted session state survives the drop."""
        served = _DoorServer()
        try:
            connection = TcpHostConnection("127.0.0.1", served.port)
            connection.login("DataCurator", "swordfish")
            connection.execute("World!rc := (World!rc ifNil: [0]) + 1")

            connection.host_end.close()  # the wire dies under us

            # same session: the uncommitted write is still visible
            assert connection.execute("World!rc")[0] == 1
            assert connection.reconnects >= 1
            assert connection.commit() is not None
            connection.logout()
            connection.close()
        finally:
            served.close()

    def test_shed_request_backs_off_in_real_time(self):
        """No clock is shared over a socket, so the carried retry-after
        is slept for (1–50 ms a backoff), not skipped: against a bucket
        that holds one request and drains one every 100 ms, the second
        request is shed, waited out and then served — eight back-to-back
        resubmissions would all land inside the same 100 ms."""

        class WallClock:
            @property
            def now(self) -> float:
                return time.monotonic() * 10.0

        served = _DoorServer(
            AdmissionController(clock=WallClock(), queue_capacity=1.0)
        )
        try:
            connection = TcpHostConnection("127.0.0.1", served.port)
            connection.login("DataCurator", "swordfish")
            assert connection.execute("1 + 1")[0] == 2  # fills the bucket
            assert connection.execute("2 + 2")[0] == 4  # shed, then served
            assert connection.overload_backoffs >= 1
            connection.logout()
            connection.close()
        finally:
            served.close()


class TestStreamLinkReadSize:
    def test_reads_ask_for_less_than_the_allocator_maps(self):
        """asyncio asks the socket for 256 KiB a read; that allocation is
        above glibc's mmap threshold, so each request would pay an mmap,
        page faults and an munmap.  Both ends cap it, and a frame larger
        than one read still arrives whole."""
        from repro.net.aio import StreamLink, open_stream_link

        big = bytes(range(256)) * 1024  # 256 KiB: several capped reads

        async def scenario():
            served = []

            async def echo(link):
                served.append(link._transport.max_size)
                await link.send(await link.receive())
                link.close()

            tasks = []
            server = await asyncio.get_running_loop().create_server(
                lambda: StreamLink(
                    on_connect=lambda link: tasks.append(
                        asyncio.ensure_future(echo(link))
                    )
                ),
                "127.0.0.1", 0,
            )
            port = server.sockets[0].getsockname()[1]
            client = await open_stream_link("127.0.0.1", port)
            asked = client._transport.max_size
            await client.send(big)
            reply = await client.receive()
            client.close()
            await asyncio.gather(*tasks)
            server.close()
            await server.wait_closed()
            return served[0], asked, reply

        served, asked, reply = asyncio.run(scenario())
        assert served <= 64 * 1024 and asked <= 64 * 1024
        assert reply == big
