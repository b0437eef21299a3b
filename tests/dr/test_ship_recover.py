"""End-to-end continuous replication: ship, lose the primary, rebuild.

The zero-loss invariant in one sentence: *client-acknowledged implies
replica-acknowledged*.  These tests drive real commits through
``GemStone.enable_replication`` and check both directions — a healthy
(or merely lossy) link keeps the replica in step and rebuilds
byte-identical platters, and a dead link makes the commit itself fail
before the client ever sees it succeed.
"""

import pytest

from repro import errors
from repro.db import GemStone
from repro.dr import (
    byte_identical,
    logical_diff,
    recover_database,
    recover_disk,
)
from repro.executor import protocol
from repro.executor.protocol import FrameType
from repro.faults.plan import FaultPlan, FaultSpec


def build_primary(commits=4, **replication_kw):
    """A small database with replication on; returns per-epoch clones."""
    db = GemStone.create(track_count=1024, track_size=512)
    shipper = db.enable_replication(**replication_kw)
    session = db.login()
    clones = {}
    for n in range(commits):
        session.execute(f"World!k{n} := 'v{n}'")
        session.commit()
        clones[db.store.commit_manager.current_epoch] = db.disk.clone()
    return db, shipper, session, clones


class TestRecovery:
    def test_latest_rebuild_is_byte_identical(self):
        db, shipper, _, _ = build_primary()
        assert shipper.replication_lag == 0
        rebuilt = recover_disk(db.replica_log)
        assert byte_identical(db.disk, rebuilt)

    def test_recovered_database_is_logically_identical(self):
        db, _, _, _ = build_primary()
        recovered = recover_database(db.replica_log)
        assert logical_diff(db, recovered) == []
        with db.login() as a, recovered.login() as b:
            assert a.execute("World!k2") == b.execute("World!k2")

    def test_point_in_time_rebuild_matches_the_epoch_clone(self):
        db, shipper, _, clones = build_primary(commits=5)
        target = sorted(clones)[1]  # an early, non-latest epoch
        assert target < shipper.acked_epoch
        rebuilt = recover_disk(db.replica_log, epoch=target)
        assert byte_identical(clones[target], rebuilt)

    def test_point_in_time_database_serves_the_old_state(self):
        db, _, session, clones = build_primary(commits=3)
        first_commit = sorted(clones)[0]
        past = recover_database(db.replica_log, epoch=first_commit)
        with past.login() as old:
            assert old.execute("World!k0") == "v0"
            # later commits never reached this point in time
            assert old.execute("World!k2") is None


class TestLossyLink:
    def test_link_faults_are_masked_by_retry(self):
        plan = FaultPlan(
            seed=7,
            spec=FaultSpec(drop_rate=0.2, duplicate_rate=0.15,
                           truncate_rate=0.1),
        )
        db, shipper, _, _ = build_primary(commits=5, plan=plan)
        assert plan.injected > 0, "the seed must actually inject faults"
        assert shipper.acked_epoch == shipper.local_epoch
        assert byte_identical(db.disk, recover_disk(db.replica_log))

    def test_duplicate_frames_are_applied_exactly_once(self):
        plan = FaultPlan(seed=3, spec=FaultSpec(duplicate_rate=1.0))
        db, shipper, _, _ = build_primary(commits=3, plan=plan)
        store = db.replica_log
        # every frame arrived twice; the store kept each record once
        assert store.records_appended == shipper.records_shipped
        assert byte_identical(db.disk, recover_disk(store))


class Partition:
    """A link wrapper with a switchable total outage."""

    def __init__(self, inner):
        self.inner = inner
        self.partitioned = False

    def send(self, frame):
        if not self.partitioned:
            self.inner.send(frame)

    def receive(self):
        if self.partitioned:
            return None
        return self.inner.receive()

    def close(self):
        self.inner.close()

    @property
    def peer_closed(self):
        return self.inner.peer_closed


class TestOutages:
    def test_suspend_buffers_and_catch_up_drains(self):
        db, shipper, session, _ = build_primary(commits=2)
        shipper.suspend()
        for n in range(2):
            session.execute(f"World!late{n} := 'late{n}'")
            session.commit()
        assert shipper.replication_lag == 2
        assert db.replica_log.acked_epoch == shipper.local_epoch - 2
        shipper.catch_up()
        assert shipper.replication_lag == 0
        assert byte_identical(db.disk, recover_disk(db.replica_log))

    def test_partition_fails_the_commit_before_the_client_sees_it(self):
        partition = None

        def wrapper(inner):
            nonlocal partition
            partition = Partition(inner)
            return partition

        db, shipper, session, _ = build_primary(
            commits=1, link_wrapper=wrapper
        )
        acked_before = db.replica_log.acked_epoch
        partition.partitioned = True
        session.execute("World!lost := 'never-acked'")
        with pytest.raises(errors.ReplicaNotAcknowledged):
            session.commit()
        # the commit was aborted: not client-acked, workspace discarded
        assert db.transaction_manager.stats.storage_failures == 1
        assert db.replica_log.acked_epoch == acked_before
        assert shipper.ship_failures == 1

        # the link heals; catch-up resends the stranded record, and the
        # retried transaction commits normally
        partition.partitioned = False
        shipper.catch_up()
        assert shipper.replication_lag == 0
        session.execute("World!lost := 'retried'")
        session.commit()
        recovered = recover_database(db.replica_log)
        with recovered.login() as check:
            assert check.execute("World!lost") == "retried"

    def test_closed_link_fails_the_commit_typed(self):
        """A closed replica link is the shipper's own typed error — a
        ``StorageError`` the Transaction Manager aborts on — not a bare
        wire error escaping ``log_sink`` with the workspace still live."""
        db, shipper, session, _ = build_primary(commits=1)
        shipper.link.close()
        session.execute("World!lost := 'never-acked'")
        with pytest.raises(errors.ReplicaNotAcknowledged):
            session.commit()
        assert not session.session.has_uncommitted_changes
        assert db.transaction_manager.stats.storage_failures == 1
        assert shipper.ship_failures == 1


class TestWireFormat:
    def test_ship_frame_roundtrip(self):
        record = b"framed-log-record-bytes"
        raw = protocol.encode_seq(5, protocol.encode_ship(record))
        frame = protocol.decode_frame(raw)
        assert frame.type is FrameType.SHIP
        assert frame.seq == 5
        assert frame.fields["record"] == record

    def test_snapshot_frame_roundtrip(self):
        raw = protocol.encode_seq(1, protocol.encode_snapshot(b"\x00\xffsnap"))
        frame = protocol.decode_frame(raw)
        assert frame.type is FrameType.SNAPSHOT
        assert frame.fields["record"] == b"\x00\xffsnap"

    def test_ship_ack_carries_the_epoch(self):
        raw = protocol.encode_seq(2, protocol.encode_ship_ack(300))
        frame = protocol.decode_frame(raw)
        assert frame.type is FrameType.SHIP_ACK
        assert frame.fields["epoch"] == 300

    def test_ship_status_roundtrip(self):
        raw = protocol.encode_seq(3, protocol.encode_ship_status())
        assert protocol.decode_frame(raw).type is FrameType.SHIP_STATUS

    def test_rehydrate_known_error_class(self):
        error = protocol.rehydrate_error("ReplicationGapError", "skipped 3")
        assert isinstance(error, errors.ReplicationGapError)
        assert "skipped 3" in str(error)

    def test_rehydrate_unknown_class_degrades_to_base(self):
        error = protocol.rehydrate_error("NoSuchErrorClass", "boom")
        assert isinstance(error, errors.GemStoneError)
        assert "NoSuchErrorClass" in str(error)


class TestObservability:
    def test_snapshot_carries_the_replication_section(self):
        db, shipper, _, _ = build_primary(commits=3)
        replication = db.observability()["storage"]["replication"]
        assert replication["enabled"] is True
        assert replication["replication_lag"] == 0
        assert replication["local_epoch"] == shipper.local_epoch
        assert replication["replica"]["acked_epoch"] == shipper.acked_epoch
        assert replication["replica"]["torn_rejected"] == 0

    def test_gauges_track_the_shipped_epochs(self):
        # the epochs live in the replication section only: the registry
        # carries no copy of them
        db, shipper, session, _ = build_primary(commits=2)
        report = db.replication_report()
        assert report["acked_epoch"] == shipper.acked_epoch == report["local_epoch"]
        assert report["replication_lag"] == 0
        shipper.suspend()
        session.execute("World!late := 1")
        session.commit()
        report = db.replication_report()
        assert report["local_epoch"] == shipper.acked_epoch + 1
        assert report["replication_lag"] == 1
        shipper.catch_up()
        assert db.replication_report()["replication_lag"] == 0
        assert not any(
            name.startswith("dr.")
            for names in db.observability()["counters"].values()
            for name in names
        )

    def test_disabled_databases_report_enabled_false(self):
        db = GemStone.create(track_count=256, track_size=512)
        assert db.observability()["storage"]["replication"] == {
            "enabled": False
        }
