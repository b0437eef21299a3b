"""Executor admission control: gates, queue, breaker, deadlines."""

import pytest

from repro import GemStone
from repro.errors import DeadlineExceeded, OverloadedError, RetryableError
from repro.executor import HostConnection
from repro.executor.protocol import FrameType, decode_frame, encode_overloaded, encode_seq
from repro.faults.plan import FaultClock
from repro.govern import AdmissionController, CircuitBreaker


def make_controller(**knobs):
    return AdmissionController(clock=FaultClock(), **knobs)


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(FaultClock(), failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(FaultClock(), failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.allow()

    def test_half_open_probe_closes_or_reopens(self):
        clock = FaultClock()
        breaker = CircuitBreaker(clock, failure_threshold=1, reset_after=10.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.allow()  # the half-open probe
        breaker.record_failure()  # probe failed: straight back open
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()  # probe succeeded: closed again
        assert breaker.allow()
        assert breaker.state == "closed"

    def test_retry_after_counts_down_on_the_clock(self):
        clock = FaultClock()
        breaker = CircuitBreaker(clock, failure_threshold=1, reset_after=10.0)
        breaker.record_failure()
        assert breaker.retry_after() == 10.0
        clock.advance(4.0)
        assert breaker.retry_after() == 6.0


class TestSessionGate:
    def test_sessions_over_the_cap_are_shed(self):
        admission = make_controller(max_sessions=2)
        admission.admit_session()
        admission.admit_session()
        with pytest.raises(OverloadedError) as excinfo:
            admission.admit_session()
        assert excinfo.value.retry_after > 0
        assert admission.shed_sessions == 1

    def test_release_frees_a_slot(self):
        admission = make_controller(max_sessions=1)
        admission.admit_session()
        admission.release_session()
        admission.admit_session()  # no raise


class TestVirtualQueue:
    def test_backlog_drains_with_the_clock(self):
        admission = make_controller(queue_capacity=10.0, drain_rate=2.0)
        for _ in range(10):
            admission.admit_request()
        assert admission.backlog == 10.0
        admission.clock.advance(3.0)
        assert admission.backlog == 4.0  # 3 units * rate 2

    def test_overflow_is_shed_with_an_honest_retry_after(self):
        admission = make_controller(queue_capacity=4.0, drain_rate=1.0)
        for _ in range(4):
            admission.admit_request()
        with pytest.raises(OverloadedError) as excinfo:
            admission.admit_request()
        assert excinfo.value.retry_after == 1.0  # one cost unit of overflow
        assert admission.shed_requests == 1
        admission.clock.advance(1.0)
        admission.admit_request()  # room again

    def test_open_breaker_sheds_everything(self):
        admission = make_controller()
        admission.breaker.record_failure()  # threshold default 5
        for _ in range(4):
            admission.record_failure()
        with pytest.raises(OverloadedError):
            admission.admit_request()
        assert admission.breaker_sheds == 1


class TestProtocolFrames:
    def test_overloaded_frame_round_trips(self):
        frame = decode_frame(encode_overloaded(3.25))
        assert frame.type is FrameType.OVERLOADED
        assert frame.fields["retry_after"] == 3.25

    def test_seq_deadline_round_trips(self):
        inner = encode_overloaded(1.0)
        frame = decode_frame(encode_seq(9, inner, deadline=44.5))
        assert frame.seq == 9
        assert frame.deadline == 44.5
        assert frame.type is FrameType.OVERLOADED

    def test_seq_without_deadline_still_decodes(self):
        inner = encode_overloaded(1.0)
        frame = decode_frame(encode_seq(9, inner))
        assert frame.seq == 9
        assert frame.deadline is None


class TestExecutorIntegration:
    def make_db(self):
        return GemStone.create(track_count=1024, track_size=512)

    def test_login_over_the_gate_gets_overloaded_then_recovers(self):
        db = self.make_db()
        admission = make_controller(max_sessions=1, queue_capacity=1000.0)
        first = HostConnection(db, admission=admission)
        first.login("DataCurator", "swordfish")
        second = HostConnection(db, admission=admission, overload_attempts=2)
        with pytest.raises(OverloadedError):
            second.login("DataCurator", "swordfish")
        first.logout()  # frees the slot
        assert second.login("DataCurator", "swordfish") > 0

    def test_shed_request_is_retried_and_served(self):
        db = self.make_db()
        admission = make_controller(queue_capacity=3.0, drain_rate=1.0)
        conn = HostConnection(db, admission=admission)
        conn.login("DataCurator", "swordfish")
        for index in range(10):  # far past the queue capacity
            _, display = conn.execute(f"{index} + 1")
            assert display == str(index + 1)
        # progress required shedding + client backoff, not silent stalls
        assert conn.overload_backoffs > 0
        assert admission.shed_requests > 0

    def test_shedding_is_a_typed_retryable_error(self):
        db = self.make_db()
        admission = make_controller(queue_capacity=1.0, drain_rate=0.001)
        # one attempt: the client reports the shed instead of waiting it out
        conn = HostConnection(db, admission=admission, overload_attempts=1)
        conn.login("DataCurator", "swordfish")
        conn.execute("1 + 1")  # fills the queue for a long time
        with pytest.raises(RetryableError) as excinfo:
            conn.execute("2 + 2")
        assert isinstance(excinfo.value, OverloadedError)
        assert excinfo.value.retry_after > 0

    def test_expired_deadline_is_refused_typed(self):
        db = self.make_db()
        admission = make_controller()
        conn = HostConnection(db, admission=admission, request_deadline=5.0)
        conn.login("DataCurator", "swordfish")

        conn.deadline = -1.0  # stamped already past
        with pytest.raises(DeadlineExceeded):
            conn.execute("1 + 1")
        assert conn.executor.deadline_rejections == 1

        conn.deadline = 5.0  # fresh deadlines are honoured again
        _, display = conn.execute("1 + 1")
        assert display == "2"

    def test_breaker_trips_on_storage_failures_and_recovers(self):
        from repro.faults import FaultClock as FClock, FaultPlan, FaultSpec, FaultyDisk
        from repro.storage import DiskGeometry, SimulatedDisk

        inner = SimulatedDisk(DiskGeometry(track_count=2048, track_size=512))
        faulty = FaultyDisk(inner, FaultPlan(seed=1), FClock())
        db = GemStone.create(disk=faulty)
        clock = FaultClock()
        admission = AdmissionController(
            clock=clock,
            breaker=CircuitBreaker(clock, failure_threshold=1, reset_after=20.0),
            queue_capacity=100000.0,
        )
        conn = HostConnection(db, admission=admission, overload_attempts=1)
        conn.login("DataCurator", "swordfish")

        conn.execute("World!x := 1")
        faulty.plan = FaultPlan(seed=1, spec=FaultSpec(transient_rate=1.0))
        with pytest.raises(RetryableError):  # typed: TransientDiskError
            conn.commit()
        assert admission.breaker.state == "open"
        # while open, even cheap requests are shed with retry-after
        with pytest.raises(OverloadedError):
            conn.execute("1 + 1")
        assert admission.breaker_sheds >= 1

        faulty.plan = FaultPlan(seed=1)  # storage heals
        clock.advance(21.0)  # breaker goes half-open
        conn.execute("World!x := 7")  # the probe succeeds: breaker closes
        assert admission.breaker.state == "closed"
        assert conn.commit() is not None
