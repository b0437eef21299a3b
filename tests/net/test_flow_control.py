"""A reader that is not reading pushes back on the sender.

``StreamLink`` is the connection's ``asyncio.Protocol``, so the loop
hands it every read whether or not anybody is calling ``receive``.
Unless the link pauses its transport once enough whole frames sit
untaken, a client that pipelines requests without reading its answers
is buffered without bound — the door's reader parked on a full window
queue is exactly that "nobody is calling ``receive``".  With the pause,
the kernel's window fills and the *sender's* ``send`` stalls: the
back-pressure docs/frontdoor.md promises "all the way to the edge".
"""

import asyncio

from repro import GemStone
from repro.frontdoor.server import FrontDoor
from repro.net import serve_frontdoor, server_port
from repro.net.aio import _RECV_SIZE, _UNREAD_HIGH, StreamLink, open_stream_link

FRAME = bytes(range(256)) * 64  # 16 KiB
FRAMES = 2048  # 32 MiB: far more than loopback's socket buffers hold


def _held(link: StreamLink) -> int:
    return len(link._buffer) + sum(4 + len(frame) for frame in link._frames)


def test_a_parked_reader_stalls_the_sender_and_buffers_a_bounded_amount():
    async def scenario():
        accepted = []
        server = await asyncio.get_running_loop().create_server(
            lambda: StreamLink(on_connect=accepted.append), "127.0.0.1", 0
        )
        client = await open_stream_link(
            "127.0.0.1", server.sockets[0].getsockname()[1]
        )
        sent = 0
        stalled = False
        for _ in range(FRAMES):
            try:
                await asyncio.wait_for(client.send(FRAME), 0.5)
            except asyncio.TimeoutError:
                # wait_for cancelled the wait, not the write: the frame
                # is in the transport's buffer and will go out
                sent += 1
                stalled = True
                break
            sent += 1
        (served,) = accepted
        held = _held(served)
        # the reader wakes up: every frame sent arrives, whole and in order
        received = 0
        while received < sent:
            frame = await asyncio.wait_for(served.receive(), 5.0)
            assert frame == FRAME
            received += 1
        paused_after = served._reading_paused
        client.close()
        assert await asyncio.wait_for(served.receive(), 5.0) is None
        served.close()
        server.close()
        await server.wait_closed()
        return stalled, sent, held, paused_after

    stalled, sent, held, paused_after = asyncio.run(scenario())
    assert stalled, f"all {sent} frames were accepted with nobody reading"
    # what the link holds: the high mark, the read that crossed it, and
    # at most one frame still arriving
    assert held <= _UNREAD_HIGH + _RECV_SIZE + 4 + len(FRAME)
    assert not paused_after  # drained below the mark: reading again


def test_a_frame_larger_than_the_high_mark_still_arrives():
    """A frame in the making is not backlog: only its sender can finish
    it, so the link keeps reading however large it is."""
    big = bytes(range(256)) * 4096  # 1 MiB, eight times the high mark
    assert len(big) > _UNREAD_HIGH

    async def scenario():
        accepted = []
        server = await asyncio.get_running_loop().create_server(
            lambda: StreamLink(on_connect=accepted.append), "127.0.0.1", 0
        )
        client = await open_stream_link(
            "127.0.0.1", server.sockets[0].getsockname()[1]
        )

        async def send_all():
            for _ in range(3):
                await client.send(big)

        sender = asyncio.ensure_future(send_all())
        while not accepted:
            await asyncio.sleep(0)
        (served,) = accepted
        frames = [await asyncio.wait_for(served.receive(), 5.0) for _ in range(3)]
        await sender
        client.close()
        served.close()
        server.close()
        await server.wait_closed()
        return frames

    assert asyncio.run(scenario()) == [big] * 3


def test_a_door_closed_under_a_silent_client_closes_its_socket():
    """A client that connects and says nothing leaves the door's link
    task parked on the HELLO peek; ``door.close()`` cancels it there,
    and the socket must go with the task."""

    async def scenario():
        door = FrontDoor(GemStone.create())
        server = await serve_frontdoor(door)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server_port(server)
        )
        for _ in range(50):  # let the accept and the spawn land
            if door._tasks:
                break
            await asyncio.sleep(0.01)
        assert door._tasks
        await door.close()
        tail = await asyncio.wait_for(reader.read(), 5.0)  # EOF: the door hung up
        writer.close()
        server.close()
        await server.wait_closed()
        return tail

    assert asyncio.run(scenario()) == b""
