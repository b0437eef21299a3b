"""ResilientDisk: retry, backoff, read-only degradation — end to end."""

import pytest

from repro import GemStone
from repro.errors import DegradedError, TransientDiskError
from repro.faults import (
    FaultClock,
    FaultPlan,
    FaultSpec,
    FaultyDisk,
    ResilientDisk,
)
from repro.storage import DiskGeometry, SimulatedDisk


def make_stack(spec, seed=42, max_retries=4, track_count=16, track_size=128):
    inner = SimulatedDisk(DiskGeometry(track_count=track_count, track_size=track_size))
    clock = FaultClock()
    faulty = FaultyDisk(inner, FaultPlan(seed=seed, spec=spec), clock)
    return ResilientDisk(faulty, clock, max_retries=max_retries), inner, clock


class TestRetry:
    def test_retry_masks_transient_faults(self):
        disk, inner, _ = make_stack(
            FaultSpec(transient_rate=0.3), seed=7, max_retries=8
        )
        for track in range(10):
            disk.write_track(track, b"payload")
            assert disk.read_track(track).startswith(b"payload")
        assert disk.retries > 0
        assert not disk.degraded
        assert all(inner.is_written(t) for t in range(10))

    def test_backoff_is_exponential_simulated_time(self):
        disk, _, clock = make_stack(FaultSpec(transient_rate=1.0), max_retries=3)
        with pytest.raises(TransientDiskError):
            disk.read_track(0)
        # three retries: 1 + 2 + 4 simulated units, never wall time
        assert clock.now == 7.0
        assert disk.backoff_time == 7.0
        assert disk.retries == 3


class TestDegradation:
    def test_exhausted_write_degrades_to_read_only(self):
        disk, inner, _ = make_stack(FaultSpec(transient_rate=1.0), max_retries=2)
        inner.write_track(1, b"still readable")
        with pytest.raises(DegradedError):
            disk.write_track(0, b"doomed")
        assert disk.degraded
        # writes now refuse immediately — before touching the fault source
        with pytest.raises(DegradedError):
            disk.write_track(2, b"refused")
        # reads are not latched: once the fault source calms, they serve
        disk.inner.plan = FaultPlan(seed=1)
        assert disk.read_track(1).startswith(b"still readable")
        assert disk.degraded  # read-only mode persists until restore()

    def test_restore_rearms_writes(self):
        disk, _, _ = make_stack(FaultSpec(transient_rate=1.0), max_retries=0)
        with pytest.raises(DegradedError):
            disk.write_track(0, b"x")
        disk.restore()
        disk.inner.plan = FaultPlan(seed=1)  # calm the fault source
        disk.write_track(0, b"recovered")
        assert disk.read_track(0).startswith(b"recovered")

    def test_degraded_error_is_typed(self):
        disk, _, _ = make_stack(FaultSpec(transient_rate=1.0), max_retries=0)
        with pytest.raises(DegradedError) as excinfo:
            disk.write_track(0, b"x")
        assert "read-only" in str(excinfo.value)


class TestFullStack:
    def test_database_survives_a_flaky_disk(self):
        """The whole pipeline — format, commits, reopen — over a disk that
        fails transiently about once in eight operations."""
        inner = SimulatedDisk(DiskGeometry(track_count=2048, track_size=512))
        clock = FaultClock()
        plan = FaultPlan(seed=2026, spec=FaultSpec(transient_rate=0.12))
        stack = ResilientDisk(FaultyDisk(inner, plan, clock), clock, max_retries=8)

        db = GemStone.create(disk=stack)
        session = db.login()
        for index in range(10):
            session.execute(f"World!key{index} := {index * 11}")
            session.commit()
        assert plan.injected > 0 and stack.retries > 0  # the flakiness was real...
        assert not stack.degraded  # ...and every fault was masked

        reopened = GemStone.open(stack)  # ...and recovery runs over it too
        check = reopened.login()
        for index in range(10):
            assert check.execute(f"World!key{index}") == index * 11
