"""A count, not a time: function calls around one request.

What a request pays between the link and ``OpalEngine.execute`` is
fixed cost — envelope, checksum, replay window, admission, seal — so it
is the same for a no-op and for a query, and it is paid once per frame.
Under ``cProfile`` (which also counts calls of builtins; exact per
build, so the bounds leave room between interpreters), one round trip
of a ``HostConnection`` over the in-memory link:

===================  ========  =======  =======  =====
round trip           c413601   149ebb0  now      bound
===================  ========  =======  =======  =====
no-op ``ABORT``      176       95       96       130
``World!k0012``      319       214      184      220
===================  ========  =======  =======  =====

A warm read no longer scans its text: its block is found by the
text's skeleton (``OpalEngine._compiled``); the ABORT now reads its
reply.  The read's bound keeps the 36 calls of room it had.

The async twin drives a ``FrontDoor`` over ``make_async_link``: a lone
request is answered by the reader at arrival and never enters the
queue; two frames that arrive together still do, because that is what
lets a refusal overtake admitted work.
"""

import asyncio
import cProfile
import pstats

import pytest

from repro import GemStone
from repro.executor import protocol
from repro.executor.executor import HostConnection
from repro.executor.protocol import FrameType
from repro.frontdoor.server import FrontDoor

READ = "World!k0012"


@pytest.fixture(scope="module")
def database():
    database = GemStone.create()
    with database.login() as loader:
        for index in range(32):
            loader.execute(f"World!k{index:04d} := {index * 7}")
        loader.commit()
    return database


@pytest.fixture()
def connection(database):
    connection = HostConnection(database)
    connection.login("DataCurator", "swordfish")
    yield connection
    connection.logout()


def calls_of(round_trip) -> int:
    """Python-level calls of one warm *round_trip*."""
    for _ in range(3):  # compile the block, fill the caches
        round_trip()
    profile = cProfile.Profile()
    profile.enable()
    round_trip()
    profile.disable()
    return pstats.Stats(profile).total_calls


def test_a_noop_abort_stays_under_130_calls(connection):
    assert calls_of(connection.abort) <= 130


def test_a_warm_point_read_stays_under_220_calls(connection):
    assert connection.execute(READ) == (84, "84")
    assert calls_of(lambda: connection.execute(READ)) <= 220


# -- the front door: answered at arrival, or queued ----------------------------


class QueueCounts:
    """``asyncio.Queue.put`` calls made while installed."""

    def __init__(self, monkeypatch) -> None:
        self.puts = 0
        original = asyncio.Queue.put

        async def put(queue, item):
            self.puts += 1
            await original(queue, item)

        monkeypatch.setattr(asyncio.Queue, "put", put)


async def logged_in(door):
    host = door.connect()
    await host.send(protocol.encode_seq(1, protocol.encode_login(
        "DataCurator", "swordfish"
    )))
    assert protocol.decode_frame(await host.receive()).type is FrameType.LOGIN_OK
    return host


def test_a_lone_request_is_answered_without_the_queue(database, monkeypatch):
    async def scenario():
        door = FrontDoor(database)
        host = await logged_in(door)
        before = door.report()
        queue = QueueCounts(monkeypatch)
        for seq in (2, 3, 4):
            await host.send(protocol.encode_seq(seq, protocol.encode_execute(READ)))
            reply = protocol.decode_frame(await host.receive())
            assert (reply.seq, reply.fields["value"]) == (seq, 84)
        # a resend is answered from the replay window, as ever
        await host.send(protocol.encode_seq(4, protocol.encode_execute(READ)))
        assert protocol.decode_frame(await host.receive()).seq == 4
        after = door.report()
        host.close()
        await door.close()
        return queue.puts, before, after

    puts, before, after = asyncio.run(scenario())
    assert puts == 0
    # every counter reads as it did when each of these took the queue
    assert after["requests"] - before["requests"] == 4
    assert after["queued"] - before["queued"] == 3
    assert after["replays"] - before["replays"] == 1
    assert after["max_queue_depth"] == 1
    assert (after["shed_overload"], after["shed_deadline"]) == (0, 0)


def test_two_frames_that_arrive_together_still_queue(database, monkeypatch):
    async def scenario():
        door = FrontDoor(database)
        host = await logged_in(door)
        queue = QueueCounts(monkeypatch)
        # both are buffered before the reader runs again
        await host.send(protocol.encode_seq(2, protocol.encode_execute(READ)))
        await host.send(protocol.encode_seq(3, protocol.encode_execute("1 + 1")))
        replies = [protocol.decode_frame(await host.receive()) for _ in range(2)]
        report = door.report()
        host.close()
        await door.close()
        return queue.puts, replies, report

    puts, replies, report = asyncio.run(scenario())
    assert puts == 2  # the second arrived behind queued work
    assert [(r.seq, r.fields["value"]) for r in replies] == [(2, 84), (3, 2)]
    assert report["queued"] == 3 and report["max_queue_depth"] == 2
