"""FaultyLink + the sequenced protocol: exactly-once over a lossy link."""

import pytest

from repro import GemStone
from repro.dr.ship import LogReceiver, LogShipper
from repro.dr.store import ReplicaLogStore
from repro.errors import LinkTimeout
from repro.executor import FrameType, HostConnection, make_link
from repro.executor import protocol
from repro.faults import FaultClock, FaultPlan, FaultSpec, make_faulty_link
from repro.shard.rpc import RequestChannel
from repro.shard.worker import ShardWorker
from repro.storage import DiskGeometry, SimulatedDisk


@pytest.fixture
def db():
    return GemStone.create(track_count=1024, track_size=1024)


def faulty_factory(spec, seed=99):
    plan = FaultPlan(seed=seed, spec=spec)
    return lambda: make_faulty_link(plan)


class TestLossyLink:
    def test_execute_survives_frame_drops(self, db):
        conn = HostConnection(
            db, link_factory=faulty_factory(FaultSpec(drop_rate=0.3)),
            max_attempts=10,
        )
        conn.login("DataCurator", "swordfish")
        for index in range(8):
            value, _ = conn.execute(f"{index} + {index}")
            assert value == 2 * index
        assert conn.retries > 0  # drops actually happened and were masked

    def test_duplicates_do_not_double_apply(self, db):
        conn = HostConnection(
            db, link_factory=faulty_factory(FaultSpec(duplicate_rate=0.5)),
            max_attempts=10,
        )
        conn.login("DataCurator", "swordfish")
        conn.execute("World!n := 0")
        for _ in range(10):
            conn.execute("World!n := World!n + 1")
        assert conn.execute("World!n")[0] == 10

    def test_truncated_frames_are_retried(self, db):
        conn = HostConnection(
            db, link_factory=faulty_factory(FaultSpec(truncate_rate=0.3)),
            max_attempts=10,
        )
        conn.login("DataCurator", "swordfish")
        for index in range(8):
            assert conn.execute(f"{index} * 3")[0] == index * 3
        assert conn.executor.corrupt_frames > 0  # damage was detected, dropped

    def test_commit_exactly_once_under_loss(self, db):
        conn = HostConnection(
            db,
            link_factory=faulty_factory(
                FaultSpec(drop_rate=0.25, duplicate_rate=0.25), seed=5
            ),
            max_attempts=12,
        )
        conn.login("DataCurator", "swordfish")
        times = []
        for index in range(6):
            conn.execute(f"World!step := {index}")
            times.append(conn.commit())
        assert all(t is not None for t in times)
        assert times == sorted(times)  # each commit applied exactly once
        assert conn.execute("World!step")[0] == 5


class TestPartition:
    def test_partition_forces_reconnect_and_completes(self, db):
        conn = HostConnection(db, max_attempts=6)
        conn.login("DataCurator", "swordfish")
        # sever the host's outgoing direction mid-session
        plan = FaultPlan(seed=0)
        healthy = conn._link_factory
        from repro.faults import FaultyLink

        faulty_host = FaultyLink(conn.host_end, plan)
        faulty_host.partition()
        conn.link = faulty_host
        value, _ = conn.execute("6 * 7")
        assert value == 42
        assert conn.reconnects > 0
        assert healthy is make_link

    def test_dead_link_times_out_with_typed_error(self, db):
        conn = HostConnection(
            db, link_factory=faulty_factory(FaultSpec(drop_rate=1.0)),
            max_attempts=3,
        )
        with pytest.raises(LinkTimeout):
            conn.login("DataCurator", "swordfish")
        assert conn.retries == 2  # attempts beyond the first


class TestReplayCache:
    def test_resent_request_replays_cached_response(self, db):
        """Send the same sequenced EXECUTE twice: one application, two
        identical responses."""
        host, gem = make_link()
        conn = HostConnection(db)
        conn.login("DataCurator", "swordfish")
        executor = conn.executor
        wrapped = protocol.encode_seq(
            1000, protocol.encode_execute("World!hits := (World!hits ifNil: [0]) + 1")
        )
        host, gem = make_link()
        host.send(wrapped)
        executor.serve(gem)
        first = host.receive()
        host.send(wrapped)  # a retry of the very same request
        executor.serve(gem)
        second = host.receive()
        assert first == second
        assert executor.replays == 1
        assert conn.execute("World!hits")[0] == 1  # applied exactly once

    def test_logout_recognised_through_envelope(self, db):
        """serve() must stop on a *decoded* LOGOUT, not a raw byte peek —
        enveloped frames start with the SEQ byte."""
        conn = HostConnection(db)
        conn.login("DataCurator", "swordfish")
        conn.logout()
        assert conn.session_id is None


class TestServeLoopResilience:
    def test_unexpected_exception_becomes_error_frame(self, db, monkeypatch):
        conn = HostConnection(db)
        conn.login("DataCurator", "swordfish")

        def explode(source):
            raise RuntimeError("interpreter bug")

        monkeypatch.setattr(conn.executor._session, "execute", explode)
        with pytest.raises(Exception, match="interpreter bug"):
            conn.execute("1 + 1")
        monkeypatch.undo()
        # the serve loop survived: the connection still works
        assert conn.execute("2 + 2")[0] == 4

    def test_partial_frame_waits_instead_of_erroring(self):
        """A frame whose body hasn't fully arrived returns None (wait);
        only a closed pipe with leftovers is truncated."""
        import struct

        from repro.errors import ProtocolError
        from repro.executor.link import _Pipe

        pipe = _Pipe()
        pipe.write(struct.pack("<I", 10) + b"half")  # 4 of 10 body bytes
        assert pipe.read_frame() is None  # waiting, not an error
        pipe.write(b"needmo")  # the rest arrives
        assert pipe.read_frame() == b"halfneedmo"

        stuck = _Pipe()
        stuck.write(struct.pack("<I", 10) + b"half")
        stuck.close()
        with pytest.raises(ProtocolError):
            stuck.read_frame()

    def test_garbage_seq_envelope_is_dropped_silently(self, db):
        """A frame that *claims* to be sequenced but is damaged gets
        dropped (the sender retries), not answered."""
        host, gem = make_link()
        from repro.executor import Executor

        executor = Executor(db)
        host.send(bytes([FrameType.SEQ]) + b"\x07garbage-without-a-valid-crc")
        executor.serve(gem)
        assert host.receive() is None
        assert executor.corrupt_frames == 1


class TestReorder:
    def test_reorder_swaps_adjacent_frames(self):
        plan = FaultPlan(seed=3, spec=FaultSpec(reorder_rate=1.0))
        from repro.faults import FaultyLink

        host_end, gem_end = make_link()
        faulty = FaultyLink(host_end, plan)
        faulty.send(b"first")   # held
        faulty.send(b"second")  # delivered, flushes the held frame after
        assert gem_end.receive() == b"second"
        assert gem_end.receive() == b"first"
        assert faulty.reordered >= 1

    def test_at_most_one_frame_held(self):
        plan = FaultPlan(seed=3, spec=FaultSpec(reorder_rate=1.0))
        from repro.faults import FaultyLink

        host_end, gem_end = make_link()
        faulty = FaultyLink(host_end, plan)
        faulty.send(b"a")  # held
        faulty.send(b"b")  # flushes a
        faulty.send(b"c")  # held
        faulty.send(b"d")  # flushes c
        got = [gem_end.receive() for _ in range(4)]
        assert sorted(got) == [b"a", b"b", b"c", b"d"]
        assert got != [b"a", b"b", b"c", b"d"]  # something really moved

    def test_execute_survives_reordering(self, db):
        conn = HostConnection(
            db,
            link_factory=faulty_factory(FaultSpec(reorder_rate=0.4), seed=11),
            max_attempts=10,
        )
        conn.login("DataCurator", "swordfish")
        conn.execute("World!n := 0")
        for _ in range(10):
            conn.execute("World!n := World!n + 1")
        assert conn.execute("World!n")[0] == 10

# -- the exactly-once property, once, for every flavour of the exchange ------
#
# Each flavour drives eight state-changing requests through one faulty
# link with its own client and its own server, and returns how many
# times the server's state says they were applied.


def host_execute_commit(plan):
    conn = HostConnection(
        GemStone.create(track_count=1024, track_size=1024),
        link_factory=lambda: make_faulty_link(plan), max_attempts=15,
    )
    conn.login("DataCurator", "swordfish")
    conn.execute("World!n := 0")
    for _ in range(8):
        conn.execute("World!n := World!n + 1")
        assert conn.commit() is not None
    return conn.execute("World!n")[0], conn, conn.executor


def shard_exec_on_a_channel(plan):
    worker = ShardWorker(0)
    near, far = make_faulty_link(plan)
    channel = RequestChannel(
        near, lambda: worker.serve(far), FaultClock(),
        channel=1, deadline=1000.0, max_attempts=15,
    )
    channel.request(protocol.encode_shard_exec("g0.1", "World!n := 0"))
    for _ in range(8):
        channel.request(
            protocol.encode_shard_exec("g0.1", "World!n := World!n + 1")
        )
    reply = channel.request(protocol.encode_shard_exec("g0.1", "World!n"))
    return reply.fields["value"], channel, worker.server


def ship(plan):
    store = ReplicaLogStore()
    receiver = LogReceiver(store)
    near, far = make_faulty_link(plan)
    shipper = LogShipper(near, lambda: receiver.serve(far), max_attempts=15)
    shipper.bootstrap(
        SimulatedDisk(DiskGeometry(track_count=4, track_size=64)), epoch=0
    )
    for epoch in range(1, 9):
        shipper.on_commit(epoch, 0, b"root%d" % epoch, {7: b"data"})
    assert store.acked_epoch == shipper.acked_epoch == 8
    # a duplicate the window let through would have reached the store
    return store.records_appended - 1 - store.duplicates_ignored, shipper, receiver


@pytest.mark.parametrize(
    "flavour", [host_execute_commit, shard_exec_on_a_channel, ship]
)
def test_exactly_once_under_loss_duplication_and_reordering(flavour):
    """The full fault mix the replay window exists for."""
    plan = FaultPlan(
        seed=17,
        spec=FaultSpec(drop_rate=0.15, duplicate_rate=0.2, reorder_rate=0.2),
    )
    applied, client, server = flavour(plan)
    assert applied == 8
    assert client.retries > 0 and server.replays > 0  # the faults were real
    assert client.timeouts == 0
