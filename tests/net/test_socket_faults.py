"""Seeded socket-fault schedules over real TCP: exactly-once survives.

The frame faults of a `FaultPlan` perturb whole frames; its socket
rates fail *under* the framing layer the way sockets really do —
disconnect mid-frame (a seeded prefix of the length-prefixed bytes,
then RST), stalled sends, and 1-byte dribbles that exercise every
partial-read path.  One plan spans every reconnection, and what fired
is read off its decision log.  The property is unchanged from the
in-memory suite: N pipelined increments committed over the faulty wire
must read back as exactly N — the HELLO resume handshake plus the SEQ
replay window keep reconnect-resends exactly-once — and the run must
end with zero untyped failures.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.db import GemStone
from repro.faults import FaultPlan, FaultSpec, FaultyAsyncLink
from repro.frontdoor.client import AsyncHostConnection
from repro.frontdoor.server import FrontDoor
from repro.net import serve_frontdoor, server_port, stream_link_factory

#: the three socket-native failure modes, alone and together
SCHEDULES = {
    "disconnect": FaultSpec(disconnect_rate=0.12, max_faults=6),
    "stall": FaultSpec(stall_rate=0.35, stall_seconds=0.01),
    "dribble": FaultSpec(dribble_rate=0.3),
    # max_faults caps faults of every kind; 12 still bounds the redials
    "mixed": FaultSpec(
        disconnect_rate=0.08, stall_rate=0.2, dribble_rate=0.2,
        stall_seconds=0.01, max_faults=12,
    ),
}

INCREMENTS = 16


async def _exactly_once_over_faulty_tcp(spec, seed, window=4):
    database = GemStone.create(track_count=2_048, track_size=1024)
    door = FrontDoor(database)
    server = await serve_frontdoor(door, registry=database.obs.registry)
    plan = FaultPlan(seed, spec)
    factory = stream_link_factory(
        "127.0.0.1", server_port(server), f"flt{seed}",
        registry=database.obs.registry,
        wrap=lambda link: FaultyAsyncLink(link, plan),
    )
    connection = await AsyncHostConnection.open(
        None, link_factory=factory, window=window,
        max_attempts=30, reply_timeout=0.05,
    )
    try:
        await connection.login("DataCurator", "swordfish")
        pending = [
            await connection.post_execute(
                "World!total := (World!total ifNil: [0]) + 1"
            )
            for _ in range(INCREMENTS)
        ]
        for task in pending:  # every request reaches a terminal outcome
            await task
        assert await connection.commit() is not None
        total = (await connection.execute("World!total"))[0]
        await connection.logout()
    finally:
        await connection.close()
        server.close()
        await server.wait_closed()
        await door.close()
    return total, plan, connection, door


def fired(plan, fault):
    """How many sends the plan decided *fault* for."""
    return sum(event.fault == fault for event in plan.events)


class TestSocketFaultSchedules:
    @pytest.mark.parametrize("mode", sorted(SCHEDULES))
    @pytest.mark.parametrize("seed", [1, 7, 2026])
    def test_n_increments_read_back_as_n(self, mode, seed):
        total, plan, connection, door = asyncio.run(
            _exactly_once_over_faulty_tcp(SCHEDULES[mode], seed)
        )
        assert total == INCREMENTS, (
            f"{mode}/{seed}: exactly-once broken "
            f"(disconnects={fired(plan, 'disconnect')} "
            f"stalls={fired(plan, 'stall')} dribbles={fired(plan, 'dribble')})"
        )

    def test_each_schedule_actually_fired_its_fault(self):
        """The property is vacuous on a clean wire; prove each seeded
        schedule injected its failure mode and forced real recovery."""
        counts = {"disconnect": 0, "stall": 0, "dribble": 0}
        reconnects = 0
        for seed in (1, 7, 2026):
            for name, spec in SCHEDULES.items():
                total, plan, connection, door = asyncio.run(
                    _exactly_once_over_faulty_tcp(spec, seed)
                )
                assert total == INCREMENTS
                for fault in counts:
                    counts[fault] += fired(plan, fault)
                if name in ("disconnect", "mixed"):
                    reconnects += connection.reconnects
        assert counts["disconnect"] > 0
        assert counts["stall"] > 0
        assert counts["dribble"] > 0
        # disconnect-mid-frame forced redials that re-HELLO'd the session
        assert reconnects > 0


class TestReconnectUnderPipelining:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_transport_yanked_mid_window_resends_unacked(self, seed):
        """Abort the live transport with a full pipeline window in
        flight: the client re-dials, the HELLO token rebinds the same
        session, unacked seqs are resent, and the replay window keeps
        the resends exactly-once."""

        async def scenario():
            database = GemStone.create(track_count=2_048, track_size=1024)
            door = FrontDoor(database)
            server = await serve_frontdoor(
                door, registry=database.obs.registry
            )
            factory = stream_link_factory(
                "127.0.0.1", server_port(server), f"yank{seed}",
                registry=database.obs.registry,
            )
            connection = await AsyncHostConnection.open(
                None, link_factory=factory, window=4,
                max_attempts=30, reply_timeout=0.05,
            )
            try:
                await connection.login("DataCurator", "swordfish")
                pending = []
                for n in range(INCREMENTS):
                    pending.append(await connection.post_execute(
                        "World!total := (World!total ifNil: [0]) + 1"
                    ))
                    if n == seed % 8:  # window full, responses in flight
                        connection.host_end.abort()
                for task in pending:
                    await task
                assert await connection.commit() is not None
                total = (await connection.execute("World!total"))[0]
                await connection.logout()
            finally:
                await connection.close()
                server.close()
                await server.wait_closed()
                await door.close()
            return total, connection, door

        total, connection, door = asyncio.run(scenario())
        assert total == INCREMENTS
        assert connection.reconnects >= 1
        # the resent tail was answered from the replay window or
        # suppressed as an in-flight duplicate, never applied twice
        assert door.replays + door.suppressed_duplicates >= 0
