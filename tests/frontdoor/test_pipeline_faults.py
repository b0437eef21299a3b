"""Pipelined exactly-once under loss, duplication and reordering.

The property the whole front door stack exists to uphold: with a
pipelining window of requests in flight over a link that drops,
duplicates, truncates and reorders frames (the seeded fault plans of
:mod:`repro.faults`), every logical request is applied **exactly once**
— no double-applies from duplicated or resent frames, no lost work, no
untyped failures, and the run terminates.  Increment-counter workloads
make double-apply visible: N increments committed must read back as
exactly N.
"""

import asyncio

import pytest

from repro import GemStone
from repro.errors import GemStoneError
from repro.faults import FaultPlan, FaultSpec, FaultyAsyncLink
from repro.frontdoor import AsyncHostConnection, FrontDoor, make_async_link

#: the full mix: every fault class the link layer can produce
FULL_MIX = FaultSpec(
    drop_rate=0.12, duplicate_rate=0.15, reorder_rate=0.15,
    truncate_rate=0.08,
)


def fresh_db():
    return GemStone.create(track_count=1024, track_size=1024)


async def faulty_connection(door, plan, window):
    """A pipelined client whose link misbehaves in both directions."""
    host_end, gem_end = make_async_link()
    door.spawn(FaultyAsyncLink(gem_end, plan))
    return await AsyncHostConnection.open(
        FaultyAsyncLink(host_end, plan),
        window=window,
        max_attempts=20,
        reply_timeout=0.02,
    )


async def exactly_once_run(seed, spec, increments=20, window=4):
    database = fresh_db()
    door = FrontDoor(database)
    plan = FaultPlan(seed=seed, spec=spec)
    conn = await faulty_connection(door, plan, window)
    await conn.login("DataCurator", "swordfish")
    pending = [
        await conn.post_execute(
            "World!total := (World!total ifNil: [0]) + 1"
        )
        for _ in range(increments)
    ]
    for task in pending:  # every request reaches a terminal outcome
        await task
    assert await conn.commit() is not None
    total = (await conn.execute("World!total"))[0]
    await conn.logout()
    await conn.close()
    await door.close()
    return total, conn, door


class TestPipelinedExactlyOnce:
    @pytest.mark.parametrize("seed", [1, 2, 3, 7, 11])
    def test_n_increments_read_back_as_n(self, seed):
        total, conn, door = asyncio.run(
            exactly_once_run(seed, FULL_MIX)
        )
        assert total == 20  # zero double-applies, zero lost work

    def test_faults_actually_fired(self):
        """The property is vacuous on a clean link; prove the schedule
        really exercised retries and the replay window."""
        totals = []
        retries = 0
        replays = 0
        for seed in (1, 2, 3, 7, 11):
            total, conn, door = asyncio.run(
                exactly_once_run(seed, FULL_MIX)
            )
            totals.append(total)
            retries += conn.retries
            replays += door.replays
        assert totals == [20] * 5
        assert retries > 0  # drops/truncations forced resends
        assert replays > 0  # duplicates were answered from the window

    @pytest.mark.parametrize("seed", [5, 13])
    def test_interleaved_commits_under_faults(self, seed):
        """Commits pipelined between increments: each applied once, so
        the committed value marches up monotonically."""

        async def scenario():
            database = fresh_db()
            door = FrontDoor(database)
            plan = FaultPlan(seed=seed, spec=FULL_MIX)
            conn = await faulty_connection(door, plan, window=4)
            await conn.login("DataCurator", "swordfish")
            times = []
            for _round in range(5):
                increment = await conn.post_execute(
                    "World!total := (World!total ifNil: [0]) + 1"
                )
                await increment  # happens-before the commit below
                times.append(await conn.commit())
            total = (await conn.execute("World!total"))[0]
            await conn.logout()
            await conn.close()
            await door.close()
            return times, total

        times, total = asyncio.run(scenario())
        assert all(t is not None for t in times)
        assert times == sorted(times)
        assert total == 5

    def test_no_untyped_errors_escape(self):
        """Whatever the link does, the only exceptions a caller can see
        are typed GemStone errors — never raw internals."""

        async def scenario():
            database = fresh_db()
            door = FrontDoor(database)
            plan = FaultPlan(
                seed=23,
                spec=FaultSpec(drop_rate=0.35, duplicate_rate=0.2,
                              reorder_rate=0.2, truncate_rate=0.15),
            )
            conn = await faulty_connection(door, plan, window=3)
            outcomes = []
            try:
                await conn.login("DataCurator", "swordfish")
                pending = [
                    await conn.post_execute(f"{n} + 1") for n in range(12)
                ]
                for task in pending:
                    try:
                        outcomes.append((await task)[0])
                    except GemStoneError as error:
                        outcomes.append(error)  # typed: acceptable
                await conn.logout()
            except GemStoneError as error:
                outcomes.append(error)
            await conn.close()
            await door.close()
            return outcomes

        outcomes = asyncio.run(scenario())
        assert outcomes  # the run terminated with terminal outcomes
        for outcome in outcomes:
            assert isinstance(outcome, (int, GemStoneError))
