"""FaultPlan and FaultClock: determinism is the whole point."""

import asyncio

import pytest

from repro.errors import ProtocolError
from repro.faults import FaultClock, FaultPlan, FaultSpec, FaultyAsyncLink
from repro.frontdoor import make_async_link


def drive(plan, operations=60):
    """A fixed mixed operation sequence against a plan."""
    for index in range(operations):
        if index % 3 == 0:
            plan.disk_fault("read", index % 7)
        elif index % 3 == 1:
            plan.disk_fault("write", index % 11)
        else:
            plan.link_fault(32 + index)


class TestDeterminism:
    def test_same_seed_reproduces_byte_identical_schedules(self):
        spec = FaultSpec(
            transient_rate=0.2, bit_rot_rate=0.1, latency_rate=0.2,
            drop_rate=0.2, duplicate_rate=0.1, truncate_rate=0.1,
        )
        first = FaultPlan(seed=1234, spec=spec)
        second = FaultPlan(seed=1234, spec=spec)
        drive(first)
        drive(second)
        assert first.schedule_bytes() == second.schedule_bytes()
        assert first.schedule_digest() == second.schedule_digest()

    def test_different_seeds_diverge(self):
        spec = FaultSpec(transient_rate=0.5, drop_rate=0.5)
        first = FaultPlan(seed=1, spec=spec)
        second = FaultPlan(seed=2, spec=spec)
        drive(first, operations=200)
        drive(second, operations=200)
        assert first.schedule_bytes() != second.schedule_bytes()

    def test_every_decision_is_recorded(self):
        plan = FaultPlan(seed=7)
        drive(plan, operations=30)
        assert len(plan.events) == 30
        assert [e.index for e in plan.events] == list(range(30))


class TestLinkSchedule:
    def test_frame_fault_draw_order_is_pinned(self):
        """The four frame faults keep their edges: socket rates were
        added after them, so a frame-only plan draws as it always has."""
        plan = FaultPlan(17, FaultSpec(
            drop_rate=0.1, duplicate_rate=0.1, truncate_rate=0.1,
            reorder_rate=0.1,
        ))
        for index in range(200):
            plan.link_fault(32 + index)
        assert plan.schedule_digest() == (
            "b497fe40bd15ea7c614a6f5dfc4de8ad54dded76af1cba4ffcfa0a46ef9b332f"
        )

    def test_frame_and_socket_faults_share_one_schedule(self):
        """All seven link outcomes come from one plan: a fixed send
        sequence over in-memory links (a fresh one after each cut, as a
        reconnect would dial) replays byte for byte."""
        spec = FaultSpec(
            drop_rate=0.05, duplicate_rate=0.05, truncate_rate=0.05,
            reorder_rate=0.05, disconnect_rate=0.05, dribble_rate=0.05,
            stall_rate=0.05, stall_seconds=0.0,
        )

        async def send_all(plan):
            link = FaultyAsyncLink(make_async_link()[0], plan)
            for index in range(300):
                try:
                    await link.send(bytes(8 + index % 40))
                except ProtocolError:
                    link = FaultyAsyncLink(make_async_link()[0], plan)
            return plan

        first = asyncio.run(send_all(FaultPlan(2026, spec)))
        second = asyncio.run(send_all(FaultPlan(2026, spec)))
        assert first.schedule_bytes() == second.schedule_bytes()
        faults = {event.fault for event in first.events}
        assert {"disconnect", "dribble", "stall"} <= faults

    def test_a_capped_disconnect_schedule_does_not_dribble(self):
        """Past ``max_faults`` a roll is "none": the disconnect share
        never turns into a fault nobody asked for."""
        plan = FaultPlan(1, FaultSpec(disconnect_rate=0.12, max_faults=6))
        for _ in range(1_000):
            plan.link_fault(64)
        faults = [event.fault for event in plan.events]
        assert faults.count("disconnect") == 6
        assert faults.count("dribble") == 0


class TestCrashPoints:
    def test_crash_fires_on_exact_write_index(self):
        plan = FaultPlan(seed=0, crash_at={2})
        assert plan.disk_fault("write", 10) == "none"
        assert plan.disk_fault("write", 11) == "none"
        assert plan.disk_fault("write", 12) == "crash"

    def test_reads_do_not_consume_write_indexes(self):
        plan = FaultPlan(seed=0, crash_at={0})
        assert plan.disk_fault("read", 5) == "none"
        assert plan.disk_fault("write", 5) == "crash"


class TestBudget:
    def test_max_faults_caps_injection(self):
        spec = FaultSpec(transient_rate=1.0, max_faults=3)
        plan = FaultPlan(seed=9, spec=spec)
        faults = [plan.disk_fault("read", 0) for _ in range(10)]
        assert faults.count("transient") == 3
        assert faults[3:] == ["none"] * 7
        assert plan.injected == 3


class TestClock:
    def test_advance_accumulates(self):
        clock = FaultClock()
        clock.advance(1.5)
        clock.advance(2.5)
        assert clock.now == 4.0

    def test_no_time_travel(self):
        with pytest.raises(ValueError):
            FaultClock().advance(-1)
