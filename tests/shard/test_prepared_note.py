"""The participant's in-doubt set lives in the store's note, not in history.

PREPARE forces the set to disk with a group write of no objects (a
contents record whose one changed section is the note, and the root),
DECIDE-commit publishes the note without the gtid in the same group as
the data.  These tests pin what that costs (a constant,
whatever the shard has been through), that nothing of it reaches the
``system`` object, and that a kill at any moment — any number of
transactions in doubt, any write offset of either group — recovers to
one side of a root flip.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro import GemStone
from repro.dr.verify import disk_digest, reopen_cold_diff
from repro.errors import DiskCrashed, TransientDiskError
from repro.executor import protocol
from repro.shard import ShardedGemStone
from repro.shard.partition import shard_of
from repro.shard.worker import NOTE_NAME, ShardWorker
from repro.storage.disk import DiskGeometry, SimulatedDisk
from repro.storage.commit import decode_root_track
from repro.storage.filedisk import FileDisk

from ..storage.test_torn_writes import lose_one_write
from .test_cluster import keys_on_distinct_shards

DATA = Path(__file__).parent / "data"


def ask(worker, raw):
    """One frame through the worker's dispatch, as a decoded reply."""
    return protocol.decode_frame(worker._handle(protocol.decode_frame(raw)))


def execute(worker, gtid, source):
    return ask(worker, protocol.encode_shard_exec(gtid, source)).fields["value"]


def prepare(worker, gtid):
    return ask(worker, protocol.encode_prepare(gtid)).fields


def decide(worker, gtid, commit):
    return ask(worker, protocol.encode_decide(gtid, commit))


def read(worker, source):
    value = execute(worker, "reader", source)
    decide(worker, "reader", False)
    return value


def fresh_worker(track_count=512):
    disk = SimulatedDisk(DiskGeometry(track_count=track_count, track_size=512))
    return ShardWorker(0, disk=disk, fresh=True)


def system_of(worker):
    store = worker.db.store
    oid = store.catalog["system"]
    record = store._read_record(oid, store.table.get(oid).tracks)
    return store.object(oid).version, len(record)


class TestCostIsConstant:
    def test_the_200th_prepare_and_decide_cost_what_the_10th_did(self, monkeypatch):
        cluster = ShardedGemStone(shard_count=2, track_count=2048, track_size=512)
        workers = [host.worker for host in cluster.hosts]
        phases = {worker.shard_id: [] for worker in workers}

        def counting(phase, real):
            def counted(self, *args):
                before = self.disk.stats.writes
                reply = real(self, *args)
                phases[self.shard_id].append(
                    (phase, self.disk.stats.writes - before)
                )
                return reply
            return counted

        monkeypatch.setattr(
            ShardWorker, "_prepare", counting("prepare", ShardWorker._prepare)
        )
        monkeypatch.setattr(
            ShardWorker, "_decide", counting("decide", ShardWorker._decide)
        )
        before = [system_of(worker) for worker in workers]
        a, b = keys_on_distinct_shards(2)
        session = cluster.login()
        allocated = []
        for i in range(200):
            session.execute(f"World!{a} := {i}")
            session.execute(f"World!{b} := {i}")
            session.commit()
            allocated.append([
                worker.db.store.storage_report()["tracks_allocated"]
                for worker in workers
            ])
        assert cluster.cross_shard_commits == 200
        for shard_id, seen in phases.items():
            # each commit: one PREPARE (the note's contents record and
            # the root), one DECIDE (the data with its contents record
            # behind it, and the root: a third track when the data's
            # last track has no room left for the record)
            assert seen[2 * 199] == seen[2 * 9] == ("prepare", 2)
            decides = {written for phase, written in seen[2 * 9 :] if phase == "decide"}
            assert decides <= {2, 3}
        # no 2PC traffic ever touched the history-keeping system object
        assert [system_of(worker) for worker in workers] == before
        # what the platters hold is the data's own history, nothing of the
        # protocol: the same writes committed locally allocate as much
        control = ShardedGemStone(shard_count=2, track_count=2048, track_size=512)
        local = control.login()
        grown = []
        for i in range(200):
            for key in (a, b):
                local.execute(f"World!{key} := {i}")
                local.commit()
            grown.append([
                host.worker.db.store.storage_report()["tracks_allocated"]
                for host in control.hosts
            ])
        assert allocated[99:] == grown[99:]
        for worker in workers:
            assert reopen_cold_diff(worker.db) == []


class TestKillAndReopen:
    @pytest.mark.parametrize("in_doubt", [0, 1, 3])
    def test_every_in_doubt_transaction_comes_back_exactly_once(self, in_doubt):
        worker = fresh_worker()
        execute(worker, "g0.0", "World!settled := 'before'")
        ask(worker, protocol.encode_shard_commit("g0.0"))
        gtids = [f"g0.{n + 1}" for n in range(in_doubt)]
        for gtid in gtids:
            execute(worker, gtid, f"World!k{gtid[-1]} := '{gtid}'")
            assert prepare(worker, gtid)["commit"]
        assert reopen_cold_diff(worker.db) == []

        worker = ShardWorker.reopen(0, worker.disk)  # the kill
        assert worker.in_doubt() == gtids
        assert worker.status()["durable_prepared"] == gtids
        assert read(worker, "World!settled") == "before"
        # the decisions arrive in another order than the prepares did,
        # with a second kill in the middle
        verdicts = dict(zip(reversed(gtids), [True, False, True]))
        for n, (gtid, commit) in enumerate(verdicts.items()):
            decide(worker, gtid, commit)
            if n == 0:
                worker = ShardWorker.reopen(0, worker.disk)
                assert worker.in_doubt() == [g for g in gtids if g != gtid]
        for gtid, commit in verdicts.items():
            expected = gtid if commit else None
            assert read(worker, f"World!k{gtid[-1]}") == expected

        assert reopen_cold_diff(worker.db) == []
        store = ShardWorker.reopen(0, worker.disk).db.store
        assert store.note == {} and "note" not in store._directory
        assert worker.in_doubt() == [] == worker.status()["durable_prepared"]

    def test_an_abort_for_a_gtid_never_seen_is_acknowledged(self):
        worker = fresh_worker()
        writes = worker.disk.stats.writes
        assert decide(worker, "g9.9", False).type is protocol.FrameType.DECIDE_ACK
        assert worker.disk.stats.writes == writes


# -- a crash at every write offset of both group writes ----------------------

#: values long enough that both swept groups span several tracks
_A, _B = "A" * 1200, "B" * 600


def _base():
    """A platter with g0.1 in doubt, and the write counts of the PREPARE
    of a second transaction and of g0.1's DECIDE-commit after it."""
    worker = fresh_worker()
    execute(worker, "g0.1", f"World!a := '{_A}'")
    prepare(worker, "g0.1")
    base = worker.disk.clone()
    probe = ShardWorker.reopen(0, base.clone())
    execute(probe, "g0.2", f"World!b := '{_B}'")
    before = probe.disk.stats.writes
    prepare(probe, "g0.2")
    prepare_writes = probe.disk.stats.writes - before
    both = probe.disk.clone()
    decide(probe, "g0.1", True)
    decide_writes = probe.disk.stats.writes - before - prepare_writes
    return base, both, prepare_writes, decide_writes


_ONE_IN_DOUBT, _TWO_IN_DOUBT, _PREPARE_WRITES, _DECIDE_WRITES = _base()


def test_the_swept_groups_are_the_sizes_the_design_says():
    # the contents record, in which nothing but the note changed (both
    # transactions' statements: four tracks of it here), and the root
    assert _PREPARE_WRITES == 5
    # g0.1's record, the contents record behind it (a table page and the
    # note), the root
    assert _DECIDE_WRITES == 6


@pytest.mark.parametrize("crash_at", range(_PREPARE_WRITES + 1))
def test_a_crash_inside_prepare_leaves_old_note_or_new(crash_at):
    worker = ShardWorker.reopen(0, _ONE_IN_DOUBT.clone())
    execute(worker, "g0.2", f"World!b := '{_B}'")
    worker.disk.crash_after(crash_at)
    if crash_at < _PREPARE_WRITES:
        with pytest.raises(DiskCrashed):
            prepare(worker, "g0.2")
    else:
        prepare(worker, "g0.2")
    worker.disk.restart()
    recovered = ShardWorker.reopen(0, worker.disk)
    published = crash_at == _PREPARE_WRITES
    assert recovered.in_doubt() == (["g0.1", "g0.2"] if published else ["g0.1"])
    assert recovered.db.store.commit_manager.current_epoch == (
        _ONE_IN_DOUBT_EPOCH + published
    )
    assert reopen_cold_diff(recovered.db) == []


@pytest.mark.parametrize("crash_at", range(_DECIDE_WRITES + 1))
def test_a_crash_inside_decide_commit_moves_note_and_data_together(crash_at):
    worker = ShardWorker.reopen(0, _TWO_IN_DOUBT.clone())
    worker.disk.crash_after(crash_at)
    if crash_at < _DECIDE_WRITES:
        with pytest.raises(DiskCrashed):
            decide(worker, "g0.1", True)
    else:
        decide(worker, "g0.1", True)
    worker.disk.restart()
    recovered = ShardWorker.reopen(0, worker.disk)
    applied = crash_at == _DECIDE_WRITES
    # never the data without the note's change, nor the other way round
    assert recovered.in_doubt() == (["g0.2"] if applied else ["g0.1", "g0.2"])
    decide(recovered, "g0.2", False)
    if not applied:
        decide(recovered, "g0.1", False)
    assert read(recovered, "World!a") == (_A if applied else None)
    assert reopen_cold_diff(recovered.db) == []


@pytest.mark.parametrize("fail_at", range(_DECIDE_WRITES))
def test_a_decide_whose_write_fails_then_whose_retry_crashes_keeps_both_in_doubt(
    fail_at,
):
    """The failed try gives back no track the old root reaches, so a
    crash anywhere in the retry still recovers both in doubt, and a retry
    that lands applies g0.1."""
    for crash_at in (*range(_DECIDE_WRITES), None):
        worker = ShardWorker.reopen(0, _TWO_IN_DOUBT.clone())
        lose_one_write(worker.disk, fail_at)
        with pytest.raises(TransientDiskError):
            decide(worker, "g0.1", True)
        applied = crash_at is None
        if applied:
            decide(worker, "g0.1", True)
        else:
            worker.disk.crash_after(crash_at)
            with pytest.raises(DiskCrashed):
                decide(worker, "g0.1", True)
            worker.disk.restart()
        recovered = ShardWorker.reopen(0, worker.disk)
        assert recovered.in_doubt() == (["g0.2"] if applied else ["g0.1", "g0.2"])
        assert reopen_cold_diff(recovered.db) == []
        if applied:
            assert read(recovered, "World!a") == _A


_ONE_IN_DOUBT_EPOCH = ShardWorker.reopen(
    0, _ONE_IN_DOUBT.clone()
).db.store.commit_manager.current_epoch


# -- a failed PREPARE write, and a platter from before the note --------------


def test_a_prepare_whose_group_write_fails_leaves_no_lock_behind():
    from repro.faults import FaultPlan, FaultSpec, FaultyDisk

    platters = [
        FaultyDisk(
            SimulatedDisk(DiskGeometry(track_count=512, track_size=512)),
            FaultPlan(seed=1),
        )
        for _ in range(2)
    ]
    for shard_id, disk in enumerate(platters):
        ShardWorker(shard_id, disk=disk, fresh=True)
    cluster = ShardedGemStone(worker_disks=platters)
    a, b = keys_on_distinct_shards(2)
    session = cluster.login()
    session.execute(f"World!{a} := 'lost'")
    session.execute(f"World!{b} := 'lost'")
    # the first participant asked validates, takes its locks, then cannot
    # write; the second is never asked at all
    failing = platters[shard_of(a, 2)]
    healthy_plan = failing.plan
    failing.plan = FaultPlan(seed=1, spec=FaultSpec(transient_rate=1.0))
    with pytest.raises(TransientDiskError):
        session.commit()
    failing.plan = healthy_plan
    for shard_id in range(2):
        status = cluster.status(shard_id, verify=True)
        assert status["in_doubt"] == [] == status["durable_prepared"]
        assert status["report"]["live_sessions"] == 0
        assert status["reopen_cold"] == []
    follower = cluster.login()
    follower.execute(f"World!{a} := 'kept'")
    follower.execute(f"World!{b} := 'kept'")
    follower.commit()
    assert cluster.login().execute(f"World!{b}") == "kept"


class TestPlatterFromBeforeTheNote:
    """A worker killed in doubt under the parent commit's code, then upgraded."""

    def legacy(self, tmp_path):
        path = tmp_path / "parent_in_doubt.platter"
        shutil.copy(DATA / "parent_in_doubt.platter", path)
        meta = json.loads((DATA / "parent_in_doubt.json").read_text())
        return FileDisk.open(str(path)), meta

    def test_its_in_doubt_set_is_recovered_exactly_once(self, tmp_path):
        disk, meta = self.legacy(tmp_path)
        legacy = GemStone.open(disk)._system_object()
        bound = len(list(legacy.history_of("prepared_2pc")))
        worker = ShardWorker.reopen(0, disk)
        assert worker.in_doubt() == meta["in_doubt"] == ["g0.2", "g0.3"]
        # it moved to the note at once: a second kill finds it there
        store = worker.db.store
        assert json.loads(store.note[NOTE_NAME]) == meta["statements"]
        worker = ShardWorker.reopen(0, disk)
        assert worker.in_doubt() == meta["in_doubt"]
        decide(worker, "g0.3", False)
        decide(worker, "g0.2", True)
        worker = ShardWorker.reopen(0, disk)
        assert worker.in_doubt() == []
        assert read(worker, "World!a") == "A2"
        assert read(worker, "World!a2") == "also A2"
        assert read(worker, "World!b") is None
        assert read(worker, "World!settled") == "before"
        # the legacy binding still says what it said — never read again,
        # never written again
        system = worker.db.store.object(worker.db.store.catalog["system"])
        assert system.value_at("prepared_2pc") == meta["legacy_record"]
        assert len(list(system.history_of("prepared_2pc"))) == bound
        assert worker.db.store.note == {}
        assert reopen_cold_diff(worker.db) == []

    def test_a_parent_platter_with_nothing_in_doubt_reopens_unwritten(self, tmp_path):
        path = tmp_path / "parent_gsr2.platter"
        shutil.copy(DATA.parent.parent / "storage/data/parent_gsr2.platter", path)
        disk = FileDisk.open(str(path))
        digest = disk_digest(disk)
        worker = ShardWorker.reopen(0, disk)
        assert worker.in_doubt() == [] and not worker.db.store.root_has_note
        assert disk.stats.writes == 0 and disk_digest(disk) == digest


class TestPlatterOfTheLastBlobFormat:
    """A worker killed in doubt on a ``GSR3`` platter, its note a blob."""

    def test_its_in_doubt_set_re_prepares_and_resolves(self, tmp_path):
        path = tmp_path / "parent_gsr3_in_doubt.platter"
        shutil.copy(DATA / "parent_gsr3_in_doubt.platter", path)
        meta = json.loads((DATA / "parent_gsr3_in_doubt.json").read_text())
        disk = FileDisk.open(str(path))
        worker = ShardWorker.reopen(0, disk)
        assert worker.in_doubt() == meta["in_doubt"] == ["g0.2", "g0.3"]
        assert json.loads(worker.db.store.note[NOTE_NAME]) == meta["statements"]
        assert reopen_cold_diff(worker.db) == []
        decide(worker, "g0.3", False)
        worker = ShardWorker.reopen(0, disk)
        assert worker.in_doubt() == ["g0.2"]
        assert "contents_tracks" in decode_root_track(
            disk.read_track(worker.db.store.commit_manager._current_slot)
        )
        decide(worker, "g0.2", True)
        worker = ShardWorker.reopen(0, disk)
        assert worker.in_doubt() == [] and worker.db.store.note == {}
        assert read(worker, "World!a") == "A2"
        assert read(worker, "World!a2") == "also A2"
        assert read(worker, "World!b") is None
        assert read(worker, "World!settled") == "before"
        assert reopen_cold_diff(worker.db) == []
