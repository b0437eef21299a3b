"""The two host clients decide alike.

The blocking ``HostConnection`` and the pipelined ``AsyncHostConnection``
decode replies and wait out OVERLOADED answers with the same code, so
one workload against one tight leaky bucket gives both the same
answers, the same backoffs, the same advance of the shared clock, the
same load at the server and the same typed error once the resubmits
are spent.
"""

import asyncio

import pytest

from repro import GemStone
from repro.errors import LinkTimeout, OverloadedError, ProtocolError
from repro.executor import protocol
from repro.executor.executor import HostConnection
from repro.faults.plan import FaultClock
from repro.frontdoor import AsyncHostConnection, FrontDoor, make_async_link
from repro.govern.admission import AdmissionController

USER, PASSWORD = "DataCurator", "swordfish"

#: the first fills the bucket; each later one is shed once, then served
SOURCES = [f"{n} * 3" for n in range(6)]

ATTEMPTS = 3


def fresh_db():
    return GemStone.create(track_count=1024, track_size=1024)


def tight_bucket():
    """Room for one request, drained a quarter unit per clock unit."""
    clock = FaultClock()
    return clock, AdmissionController(
        clock=clock, queue_capacity=1.0, drain_rate=0.25
    )


def outcome(clock, admission, client, answers, error) -> dict:
    return {
        "answers": answers,
        "backoffs": client.overload_backoffs,
        "clock": clock.now,
        "admitted": admission.admitted,
        "shed": admission.shed_requests,
        "error": (type(error), str(error), error.retry_after),
    }


def drive_blocking() -> dict:
    clock, admission = tight_bucket()
    client = HostConnection(
        fresh_db(), admission=admission, overload_attempts=ATTEMPTS
    )
    client.login(USER, PASSWORD)
    answers = [client.execute(source) for source in SOURCES]
    admission.request_cost = 2.0  # more than the bucket holds: shed for good
    with pytest.raises(OverloadedError) as caught:
        client.execute("0")
    client.logout()  # behind anything the client still had on the wire
    return outcome(clock, admission, client, answers, caught.value)


async def drive_pipelined() -> dict:
    clock, admission = tight_bucket()
    door = FrontDoor(fresh_db(), admission=admission)
    client = await AsyncHostConnection.open(
        door.connect(), clock=clock, overload_attempts=ATTEMPTS
    )
    await client.login(USER, PASSWORD)
    answers = [await client.execute(source) for source in SOURCES]
    admission.request_cost = 2.0
    with pytest.raises(OverloadedError) as caught:
        await client.execute("0")
    await client.logout()
    result = outcome(clock, admission, client, answers, caught.value)
    await client.close()
    await door.close()
    return result


def test_both_clients_wait_out_overload_alike():
    blocking = drive_blocking()
    pipelined = asyncio.run(drive_pipelined())
    assert pipelined == blocking
    # what the run is for: every later request was shed once and the
    # last one ATTEMPTS times, each wait charged to the clock, and no
    # request was resubmitted after the client had given up
    assert blocking["answers"] == [(3 * n, str(3 * n)) for n in range(6)]
    assert blocking["backoffs"] == len(SOURCES) - 1 + ATTEMPTS
    assert blocking["clock"] == 5 * 4.0 + 8.0 + 4.0 + 4.0
    assert (blocking["admitted"], blocking["shed"]) == (6, 5 + ATTEMPTS)
    assert blocking["error"] == (
        OverloadedError, f"still shedding after {ATTEMPTS} backoffs", 4.0
    )


def overloaded(retry_after: float):
    return protocol.decode_frame(protocol.encode_overloaded(retry_after))


def client_of(flavour: str, clock):
    """A client of either flavour, its waits charged to *clock* (or not)."""
    if flavour == "blocking":
        admission = None if clock is None else AdmissionController(clock=clock)
        return HostConnection(fresh_db(), admission=admission)
    return AsyncHostConnection(None, clock=clock)


@pytest.mark.parametrize("flavour", ["blocking", "pipelined"])
def test_a_clocked_wait_charges_at_least_half_a_unit(flavour):
    clock = FaultClock()
    client = client_of(flavour, clock)
    assert client._overload_wait(overloaded(0.1)) == 0.0
    assert clock.now == 0.5
    assert client._overload_wait(overloaded(2.0)) == 0.0
    assert clock.now == 2.5
    assert client.overload_backoffs == 2


@pytest.mark.parametrize("flavour", ["blocking", "pipelined"])
def test_an_unclocked_wait_sleeps_between_1_and_50_ms(flavour):
    client = client_of(flavour, None)
    waits = [
        client._overload_wait(overloaded(retry_after))
        for retry_after in (0.0, 0.0004, 0.02, 0.05, 3.0)
    ]
    assert waits == [0.001, 0.001, 0.02, 0.05, 0.05]


def test_a_first_send_redials_max_attempts_times_then_gives_up():
    """Every link the factory hands out is dead: the first send redials
    ``max_attempts`` times, then raises ``LinkTimeout`` with nothing left
    pending."""

    async def scenario():
        dials = 0

        async def dead_link():
            nonlocal dials
            dials += 1
            host_end, _gem_end = make_async_link()
            host_end.close()
            return host_end

        client = await AsyncHostConnection.open(
            None, link_factory=dead_link, max_attempts=3
        )
        try:
            with pytest.raises(LinkTimeout, match="kept dying"):
                await client.execute("1 + 1")
            assert client._pending == {}
            return dials, client.reconnects
        finally:
            await client.close()

    assert asyncio.run(scenario()) == (1 + 3, 3)


def test_abort_and_logout_raise_an_error_reply_on_both_clients():
    """Before login the server answers ABORT and LOGOUT with ``ERROR
    ProtocolError: not logged in``; neither client may drop it."""
    blocking = HostConnection(fresh_db())
    for verb in (blocking.abort, blocking.logout):
        with pytest.raises(ProtocolError, match="not logged in"):
            verb()

    async def pipelined():
        door = FrontDoor(fresh_db())
        client = await AsyncHostConnection.open(door.connect())
        try:
            for verb in (client.abort, client.logout):
                with pytest.raises(ProtocolError, match="not logged in"):
                    await verb()
        finally:
            await client.close()
            await door.close()

    asyncio.run(pipelined())
