"""Crash-and-recover: one matrix, both worker hosts.

Each case kills one node of a cluster at one named 2PC window — the
worker's wire windows around PREPARE/VOTE/DECIDE_ACK plus the
durability windows inside it, or one of the coordinator's — then
recovers the cluster in place and proves the decision log resolves
every gtid: nothing stays in doubt, the killed transaction is
atomically all-present or all-absent, an acked commit is never lost,
and the recovered cluster still commits cross-shard.  The host kind is
a parameter: in memory the kill is an exception, over processes it is
SIGKILL on a forked worker; the windows, and what must be true after
each, are the same.
"""

from __future__ import annotations

import shutil

import pytest

from repro.errors import GemStoneError, TransactionInDoubt
from repro.shard import ShardedGemStone
from repro.shard.partition import shard_of
from repro.shard.procs import ProcCluster
from repro.check import check
from repro.faults import WindowKiller

#: what ``python -m repro.check shard --host`` calls each cluster class
HOSTS = {ShardedGemStone: "memory", ProcCluster: "process"}

VICTIM = 0

#: every window a worker can die at, and where the transaction it was
#: part of must end up: "absent" (it never voted, abort is presumed),
#: "present" (the decision was logged before it died), or "atomic"
#: (either, but never split)
WORKER_WINDOWS = [
    ("wire.prepare_received", "absent"),  # PREPARE arrived, nothing happened
    ("prepare.before_persist", "absent"),  # validated, record not yet durable
    ("prepare.after_persist", "absent"),  # record durable, vote never sent
    ("wire.vote_sent", "atomic"),  # vote on the wire, decision pending
    ("decide.before_apply", "present"),  # decision received, not yet applied
    ("decide.after_apply", "present"),  # applied durably, ack never sent
    ("wire.decide_ack_sent", "present"),  # ack on the wire, then death
]

COORDINATOR_WINDOWS = [
    ("coord.before_decision_persist", "absent"),  # nothing reached the log
    ("coord.after_decision_persist", "present"),  # logged, no DECIDE sent
    ("coord.mid_decide", "present"),  # logged, the fan-out cut short
]


@pytest.fixture(params=[ShardedGemStone, ProcCluster], ids=["memory", "process"])
def cluster_class(request):
    return request.param


def cross_shard_keys(prefix: str, shards: int = 2) -> list[str]:
    """One key per shard, so the transaction is genuinely cross-shard."""
    keys: dict[int, str] = {}
    probe = 0
    while len(keys) < shards:
        key = f"{prefix}{probe}"
        keys.setdefault(shard_of(key, shards), key)
        probe += 1
    return [keys[shard] for shard in sorted(keys)]


def write(cluster, keys) -> bool:
    """One cross-shard transaction; whether the client saw it commit."""
    session = cluster.login()
    try:
        for key in keys:
            session.execute(f"World!{key} := 'v_{key}'")
        session.commit()
        return True
    except GemStoneError:
        try:
            session.abort()
        except GemStoneError:
            pass  # a dead shard's workspace dies with it
        return False


def landed(cluster, keys) -> list[str]:
    checker = cluster.login()
    values = {key: checker.execute(f"World!{key}") for key in keys}
    checker.abort()
    return [key for key, value in values.items() if value == f"v_{key}"]


def assert_recovered(cluster, keys, fate, acked, after):
    # the decision log resolved every gtid: nothing left in doubt
    for shard_id in range(cluster.shard_count):
        status = cluster.status(shard_id)
        assert status["in_doubt"] == []
        assert status["durable_prepared"] == []
    assert cluster.in_doubt() == {}
    assert cluster.coordinator.log.pending() == {}
    # atomicity, zero acked loss, and the fate the window dictates
    present = landed(cluster, keys)
    assert len(present) in (0, len(keys)), f"half-committed after {after}"
    if acked or fate == "present":
        assert present == keys, f"committed transaction lost after {after}"
    if fate == "absent":
        assert not acked and present == []
    # liveness: the recovered cluster commits fresh cross-shard work
    fresh = cross_shard_keys("lv")
    assert write(cluster, fresh)
    assert landed(cluster, fresh) == fresh


@pytest.mark.parametrize(
    "window,fate", WORKER_WINDOWS, ids=[w for w, _ in WORKER_WINDOWS]
)
def test_worker_killed_at_window_recovers(cluster_class, window, fate):
    cluster = cluster_class(
        shard_count=2, killer=WindowKiller(VICTIM, kill_window=(window, 0))
    )
    try:
        keys = cross_shard_keys("mx")
        acked = write(cluster, keys)
        assert cluster.hosts[VICTIM].await_death(), (
            f"worker survived its armed window {window}"
        )
        stats = cluster.recover()
        if window == "decide.before_apply":
            # the respawned worker re-prepared; the log said commit
            assert stats["resolved"] >= 1
        assert_recovered(cluster, keys, fate, acked, window)
    finally:
        cluster.close(drain=False)


@pytest.mark.parametrize(
    "window,fate", COORDINATOR_WINDOWS, ids=[w for w, _ in COORDINATOR_WINDOWS]
)
def test_coordinator_death_resolves_from_log(cluster_class, window, fate):
    """The client is told in-doubt; recovery reloads the log from its
    platter and lands the transaction on the side the log dictates."""
    cluster = cluster_class(
        shard_count=2, killer=WindowKiller("coord", kill_window=(window, 0))
    )
    try:
        keys = cross_shard_keys("cd")
        session = cluster.login()
        for key in keys:
            session.execute(f"World!{key} := 'v_{key}'")
        with pytest.raises(TransactionInDoubt):
            session.commit()
        assert not cluster.coordinator.alive
        cluster.recover()
        assert cluster.coordinator.alive
        assert_recovered(cluster, keys, fate, False, window)
    finally:
        cluster.close(drain=False)


def reopen(cluster, **options):
    """A second cluster constructed over *cluster*'s surviving platters."""
    if isinstance(cluster, ProcCluster):
        return ProcCluster(shard_count=2, base_dir=cluster.base_dir, **options)
    return ShardedGemStone(
        worker_disks=[host.disk for host in cluster.hosts],
        decision_disk=cluster.coordinator.log.disk,
        **options,
    )


def test_graceful_stop_then_reopen_from_surviving_platters(cluster_class):
    """A drained cluster (SIGTERM → exit 0 where there are processes)
    leaves platters a new cluster reopens with the committed state."""
    cluster = cluster_class(shard_count=2)
    keys = cross_shard_keys("dr")
    try:
        assert write(cluster, keys)
    finally:
        exitcodes = cluster.close(drain=True, cleanup=False)
    assert all(code in (0, None) for code in exitcodes)
    assert (exitcodes == [0, 0]) == (cluster_class is ProcCluster)

    recovered = reopen(cluster)
    try:
        assert landed(recovered, keys) == keys
    finally:
        recovered.close()
        shutil.rmtree(getattr(cluster, "base_dir", ""), ignore_errors=True)


def test_whole_cluster_crash_then_reopen_resolves_in_doubt(cluster_class):
    """Everything dies with a commit logged and no DECIDE sent; a new
    cluster over the platters re-prepares, and the same recover() lands
    it."""
    cluster = cluster_class(
        shard_count=2,
        killer=WindowKiller(
            "coord", kill_window=("coord.after_decision_persist", 0)
        ),
    )
    keys = cross_shard_keys("wc")
    try:
        assert not write(cluster, keys)
        for host in cluster.hosts:
            host.sigkill()
    finally:
        cluster.close(drain=False, cleanup=False)

    recovered = reopen(cluster, generation=cluster.generation + 1)
    try:
        assert recovered.in_doubt() != {}  # re-prepared before serving
        stats = recovered.recover()
        assert stats["resolved"] >= 2
        assert_recovered(recovered, keys, "present", False, "a full restart")
    finally:
        recovered.close()
        shutil.rmtree(getattr(cluster, "base_dir", ""), ignore_errors=True)


def test_sweep_smoke(cluster_class):
    """A strided slice of the full kill sweep stays invariant-clean."""
    report = check("shard", stride=7, host=HOSTS[cluster_class])
    assert report.ok, [f.describe() for f in report.failures]
    assert report.cases_run >= 5
    assert report.counts["liveness_commits"] == report.cases_run


def test_both_hosts_census_the_same_windows():
    """Same seed, same ordered (node, window) list — so kill K means the
    same instant on either host."""
    censuses = [
        check(
            "shard", case=0, host=host, seed=2026, shards=2, transactions=6
        ).census
        for host in ("memory", "process")
    ]
    assert censuses[0] == censuses[1]
    assert len(censuses[0]) == 40
    names = {name for _node, name in censuses[0]}
    assert {w for w, _ in WORKER_WINDOWS + COORDINATOR_WINDOWS} <= names
