"""A length prefix is four bytes the peer chooses: every end bounds it.

Before ``MAX_FRAME_BYTES`` a header of ``ff ff ff ff`` was a promise of
4 GiB that each link end set about buffering — the front door or a
shard worker could be walked out of memory by one unauthenticated
connection.  Each end now refuses the length with ``ProtocolError``
before buffering a byte of the body, and closes the link (a stream that
lied about a length cannot be re-synchronised).
"""

import asyncio
import socket
import struct

import pytest

from repro import GemStone
from repro.errors import ProtocolError
from repro.executor.link import MAX_FRAME_BYTES, make_link
from repro.frontdoor.alink import make_async_link
from repro.frontdoor.server import FrontDoor
from repro.net import Listener, serve_frontdoor, server_port

HOSTILE = b"\xff\xff\xff\xff" + b"x" * 64
AT_THE_LIMIT = struct.pack("<I", MAX_FRAME_BYTES)


def test_the_in_memory_end_refuses_and_closes():
    host, gem = make_link()
    host._out.write(HOSTILE)
    with pytest.raises(ProtocolError, match="exceeds"):
        gem.receive()
    with pytest.raises(ProtocolError, match="closed"):
        host.send(b"anything more")


def test_the_async_in_memory_end_refuses_and_closes():
    async def scenario():
        host, gem = make_async_link()
        await host._out.write(HOSTILE)
        with pytest.raises(ProtocolError, match="exceeds"):
            await gem.receive()
        with pytest.raises(ProtocolError, match="closed"):
            await host.send(b"anything more")

    asyncio.run(scenario())


def test_the_blocking_tcp_end_refuses_and_closes():
    listener = Listener(receive_timeout=1.0)
    try:
        hostile = socket.create_connection(("127.0.0.1", listener.port))
        end = listener.accept(timeout=2.0)
    finally:
        listener.close()
    with hostile:
        hostile.sendall(HOSTILE)
        with pytest.raises(ProtocolError, match="exceeds"):
            end.receive()
        assert end.peer_closed
        with pytest.raises(ProtocolError, match="closed"):
            end.send(b"anything more")


def test_a_length_at_the_limit_is_still_a_frame_in_the_making():
    host, gem = make_link()
    host._out.write(AT_THE_LIMIT + b"the first bytes of a very long frame")
    assert gem.receive() is None  # incomplete, not refused


def test_the_front_door_hangs_up_on_a_hostile_header():
    """Over a real socket: the door drops the connection at the header
    instead of reading on, and has nothing left open afterwards."""

    async def scenario():
        door = FrontDoor(GemStone.create())
        server = await serve_frontdoor(door)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server_port(server)
        )
        writer.write(HOSTILE)
        await writer.drain()
        try:
            tail = await asyncio.wait_for(reader.read(), 5.0)  # EOF, or a reset
        except ConnectionError:
            tail = b""
        for _ in range(50):  # the served link's teardown is a few loop turns
            if door.active_links == 0:
                break
            await asyncio.sleep(0.01)
        writer.close()
        server.close()
        await server.wait_closed()
        await door.close()
        return tail, door.active_links, door.links_served

    assert asyncio.run(scenario()) == (b"", 0, 1)
