"""The front door's staged serving loop: admission at arrival,
deadlines re-checked at dequeue, replays answered from the window, and
responses legitimately overtaking one another."""

import asyncio
import json
import pathlib

import pytest

from repro import GemStone
from repro.errors import (
    AuthorizationError, LinkTimeout, OverloadedError, ProtocolError,
)
from repro.executor import protocol
from repro.executor.executor import Executor
from repro.executor.protocol import FrameType
from repro.faults.plan import FaultClock
from repro.frontdoor import AsyncHostConnection, FrontDoor, make_async_link
from repro.govern.admission import AdmissionController

SCHEMA_PATH = (
    pathlib.Path(__file__).resolve().parents[2]
    / "docs" / "observability_schema.json"
)


def run(coroutine):
    return asyncio.run(coroutine)


def fresh_db():
    return GemStone.create(track_count=1024, track_size=1024)


async def raw_session(door):
    """A logged-in raw link (host drives envelopes by hand)."""
    host = door.connect()
    await host.send(protocol.encode_seq(
        1, protocol.encode_login("DataCurator", "swordfish")
    ))
    raw = await host.receive()
    assert protocol.decode_frame(raw).type is FrameType.LOGIN_OK
    return host


class TestConstruction:
    def test_replay_window_must_cover_the_session_window(self):
        with pytest.raises(ValueError):
            FrontDoor(fresh_db(), window=8, replay_window=8)

    def test_registers_with_observability(self):
        database = fresh_db()
        door = FrontDoor(database)
        assert door in database.obs._frontdoors


class TestDeadLink:
    def test_send_on_a_dead_link_is_link_timeout_and_frees_its_seq(self):
        """A first send fails and there is no factory to replace the
        link: the caller gets the retryable ``LinkTimeout`` the
        stop-and-wait client raises, nothing stays pending, and the
        window slot comes back."""

        async def scenario():
            host_end, _gem_end = make_async_link()
            host_end.close()
            connection = await AsyncHostConnection.open(host_end, window=1)
            try:
                for _ in range(2):
                    with pytest.raises(LinkTimeout) as caught:
                        await connection.execute("1 + 1")
                    assert isinstance(caught.value.__cause__, ProtocolError)
                    assert connection._pending == {}
            finally:
                await connection.close()

        run(scenario())


class TestHappyPath:
    def test_login_pipelined_executes_commit_logout(self):
        async def scenario():
            database = fresh_db()
            door = FrontDoor(database)
            conn = await AsyncHostConnection.open(door.connect(), window=4)
            await conn.login("DataCurator", "swordfish")
            pending = [
                await conn.post_execute(
                    "World!total := (World!total ifNil: [0]) + 1"
                )
                for _ in range(6)
            ]
            for task in pending:
                await task
            assert await conn.commit() is not None
            assert (await conn.execute("World!total"))[0] == 6
            await conn.logout()
            await conn.close()
            assert door.requests >= 9
            assert door.links_served == 1

        run(scenario())

    def test_bad_login_raises_the_typed_error(self):
        async def scenario():
            conn = await AsyncHostConnection.open(FrontDoor(fresh_db()).connect())
            with pytest.raises(AuthorizationError):
                await conn.login("DataCurator", "wrong")
            await conn.close()

        run(scenario())

    def test_many_links_interleave_on_one_loop(self):
        async def scenario():
            database = fresh_db()
            door = FrontDoor(database)
            conns = [
                await AsyncHostConnection.open(door.connect(), window=2)
                for _ in range(16)
            ]
            for conn in conns:
                await conn.login("DataCurator", "swordfish")
            results = await asyncio.gather(*[
                conn.execute(f"{index} * 2")
                for index, conn in enumerate(conns)
            ])
            assert [value for value, _ in results] == [
                index * 2 for index in range(16)
            ]
            for conn in conns:
                await conn.logout()
                await conn.close()
            for _ in range(5):
                await asyncio.sleep(0)  # let each serve() observe its close
            assert door.links_served == 16
            assert door.active_links == 0

        run(scenario())


class TestOverload:
    def test_saturation_degrades_into_typed_overloaded_frames(self):
        async def scenario():
            database = fresh_db()
            clock = FaultClock()
            admission = AdmissionController(
                clock=clock, queue_capacity=3.0, drain_rate=1.0
            )
            door = FrontDoor(database, admission=admission)
            host = await raw_session(door)
            for seq in range(2, 12):
                await host.send(protocol.encode_seq(
                    seq, protocol.encode_execute("1 + 1")
                ))
            outcomes = {FrameType.RESULT: 0, FrameType.OVERLOADED: 0}
            for _ in range(10):
                frame = protocol.decode_frame(await host.receive())
                outcomes[frame.type] += 1
                if frame.type is FrameType.OVERLOADED:
                    assert frame.fields["retry_after"] > 0
            assert outcomes[FrameType.OVERLOADED] > 0
            assert outcomes[FrameType.RESULT] > 0
            assert door.shed_overload == outcomes[FrameType.OVERLOADED]
            host.close()
            await door.close()

        run(scenario())

    def test_client_backs_off_and_completes_under_overload(self):
        async def scenario():
            database = fresh_db()
            clock = FaultClock()
            admission = AdmissionController(
                clock=clock, queue_capacity=4.0, drain_rate=2.0
            )
            door = FrontDoor(database, admission=admission)
            conn = await AsyncHostConnection.open(
                door.connect(), window=4, clock=clock, overload_attempts=20
            )
            await conn.login("DataCurator", "swordfish")
            pending = [
                await conn.post_execute(f"{n} + 1") for n in range(12)
            ]
            values = [(await task)[0] for task in pending]
            assert values == [n + 1 for n in range(12)]
            assert conn.overload_backoffs > 0  # sheds happened, all typed
            await conn.logout()
            await conn.close()

        run(scenario())

    def test_exhausted_backoffs_raise_the_typed_error(self):
        async def scenario():
            database = fresh_db()
            clock = FaultClock()
            admission = AdmissionController(clock=clock, max_sessions=1)
            door = FrontDoor(database, admission=admission)
            first = await AsyncHostConnection.open(
                door.connect(), clock=clock
            )
            await first.login("DataCurator", "swordfish")
            second = await AsyncHostConnection.open(
                door.connect(), clock=clock, overload_attempts=2
            )
            with pytest.raises(OverloadedError):
                await second.login("DataCurator", "swordfish")
            await first.logout()
            await first.close()
            await second.close()

        run(scenario())

    def test_closed_link_frees_its_session_slot(self):
        """A host that vanishes without LOGOUT must not leak its
        admission slot: serve()'s cleanup hangs up the session."""

        async def scenario():
            database = fresh_db()
            clock = FaultClock()
            admission = AdmissionController(clock=clock, max_sessions=1)
            door = FrontDoor(database, admission=admission)
            first = await AsyncHostConnection.open(door.connect(), clock=clock)
            await first.login("DataCurator", "swordfish")
            assert admission.sessions == 1
            await first.close()  # the link dies, no LOGOUT was sent
            for _ in range(5):
                await asyncio.sleep(0)  # let serve() observe the close
            assert admission.sessions == 0
            second = await AsyncHostConnection.open(door.connect(), clock=clock)
            assert await second.login("DataCurator", "swordfish") is not None
            await second.logout()
            await second.close()

        run(scenario())


class TestDeadlines:
    def test_expired_work_is_shed_at_dequeue_not_executed(self, monkeypatch):
        """A request whose deadline passes *while it queues* must be
        answered with a typed error, not run: the client gave up."""

        async def scenario():
            database = fresh_db()
            clock = FaultClock()
            admission = AdmissionController(clock=clock)
            door = FrontDoor(database, admission=admission)
            original_apply = Executor.apply

            def slow_apply(self, frame):
                clock.advance(10.0)  # each request takes 10 clock units
                return original_apply(self, frame)

            monkeypatch.setattr(Executor, "apply", slow_apply)
            host = await raw_session(door)
            deadline = clock.now + 1.0  # patient enough for the queue,
            for seq in (2, 3):          # not for being behind seq 2
                await host.send(protocol.encode_seq(
                    seq, protocol.encode_execute("1 + 1"),
                    deadline=deadline,
                ))
            first = protocol.decode_frame(await host.receive())
            second = protocol.decode_frame(await host.receive())
            assert first.type is FrameType.RESULT
            assert second.type is FrameType.ERROR
            assert second.fields["error_class"] == "DeadlineExceeded"
            assert door.shed_deadline == 1
            host.close()
            await door.close()

        run(scenario())


class TestReplay:
    def test_duplicate_request_replays_the_sealed_response(self):
        async def scenario():
            database = fresh_db()
            door = FrontDoor(database)
            host = await raw_session(door)
            envelope = protocol.encode_seq(
                2,
                protocol.encode_execute(
                    "World!hits := (World!hits ifNil: [0]) + 1"
                ),
            )
            await host.send(envelope)
            first = await host.receive()
            await host.send(envelope)  # the network redelivered it
            second = await host.receive()
            assert first == second
            assert door.replays == 1
            await host.send(protocol.encode_seq(
                3, protocol.encode_execute("World!hits")
            ))
            readback = protocol.decode_frame(await host.receive())
            assert readback.fields["value"] == 1  # applied exactly once
            host.close()
            await door.close()

        run(scenario())


class TestOvertaking:
    def test_shed_answer_overtakes_queued_work(self):
        """Refusals are answered at arrival while admitted work is still
        queued, so the refusal's response legitimately arrives first —
        the reason correlation is by seq, never arrival order."""

        async def scenario():
            database = fresh_db()
            clock = FaultClock()
            admission = AdmissionController(
                clock=clock, queue_capacity=1.0, drain_rate=1.0
            )
            door = FrontDoor(database, admission=admission)
            host = await raw_session(door)
            await host.send(protocol.encode_seq(
                2, protocol.encode_execute("1 + 1")
            ))  # admitted (fills the bucket), queued for the dispatcher
            await host.send(protocol.encode_seq(
                3, protocol.encode_execute("2 + 2")
            ))  # refused at arrival, answered immediately
            first = protocol.decode_frame(await host.receive())
            second = protocol.decode_frame(await host.receive())
            assert (first.seq, first.type) == (3, FrameType.OVERLOADED)
            assert (second.seq, second.type) == (2, FrameType.RESULT)
            host.close()
            await door.close()

        run(scenario())


class TestSnapshot:
    def test_frontdoor_section_matches_the_pinned_schema(self):
        async def scenario():
            database = fresh_db()
            door = FrontDoor(database)
            conn = await AsyncHostConnection.open(door.connect())
            await conn.login("DataCurator", "swordfish")
            await conn.execute("1 + 1")
            await conn.logout()
            await conn.close()
            await door.close()
            return database

        database = run(scenario())
        from repro.obs.schema import validate

        snapshot = database.observability()
        assert "frontdoor" in snapshot
        schema = json.loads(SCHEMA_PATH.read_text())
        validate(snapshot, schema)
        validate(snapshot["frontdoor"], schema["properties"]["frontdoor"])
        section = snapshot["frontdoor"]
        assert section["requests"] >= 3
        assert section["latency_ms"]["count"] >= 3
        assert section["latency_ms"]["p99"] >= section["latency_ms"]["p50"]

    def test_section_is_absent_without_a_front_door(self):
        snapshot = fresh_db().observability()
        assert "frontdoor" not in snapshot
        schema = json.loads(SCHEMA_PATH.read_text())
        assert "frontdoor" in schema["properties"]
        assert "frontdoor" not in schema["required"]

    def test_dashboard_renders_the_front_door_section(self):
        async def scenario():
            database = fresh_db()
            door = FrontDoor(database)
            conn = await AsyncHostConnection.open(door.connect())
            await conn.login("DataCurator", "swordfish")
            await conn.execute("1 + 1")
            await conn.logout()
            await conn.close()
            await door.close()
            return database

        database = run(scenario())
        from repro.tools.dashboard import render_dashboard

        text = render_dashboard(database)
        assert "front door" in text
        assert "shed: overload" in text
