"""Torn-write sweep: crash at *every* write offset of one commit group.

The parametrized sweep below is exhaustive, not sampled — the write
count of the victim commit is measured at import time on a throwaway
clone, and one test case crashes before each of those writes in turn.
Recovery must land the previous epoch with every pre-crash value intact,
also when the crashed group is the retry of one that failed transiently.
"""

import itertools

import pytest

from repro.core import GemObject
from repro.errors import DiskCrashed, TransientDiskError
from repro.storage import (
    DiskGeometry,
    Linker,
    SimulatedDisk,
    StableStore,
    Write,
    Creation,
)


def _commit(store, creations=(), writes=()):
    tx_time = store.last_tx_time + 1
    dirty = Linker(store).incorporate(
        [Creation(o) for o in creations], [Write(*w) for w in writes], tx_time
    )
    store.persist(dirty, tx_time)


def _update_writes(oids):
    # a value that fills most of a track: each record gets one of its
    # own, so the victim group spans several shadow tracks
    return [(oid, "v", f"new{i}" + "x" * 400) for i, oid in enumerate(oids)]


def _prepare():
    """One committed base image + the write count of the victim commit."""
    disk = SimulatedDisk(DiskGeometry(track_count=512, track_size=512))
    store = StableStore.format(disk)
    objs = [
        GemObject(oid=store.allocate_oid(), class_oid=store.classes["Object"])
        for _ in range(4)
    ]
    _commit(store, objs, [(o.oid, "v", f"old{i}") for i, o in enumerate(objs)])
    oids = [o.oid for o in objs]
    base_epoch = store.commit_manager.current_epoch

    probe_disk = disk.clone()
    probe = StableStore.open(probe_disk)
    before = probe_disk.stats.writes
    _commit(probe, writes=_update_writes(oids))
    write_count = probe_disk.stats.writes - before
    return disk, oids, base_epoch, write_count


_DISK, _OIDS, _BASE_EPOCH, _WRITE_COUNT = _prepare()


def test_victim_commit_spans_multiple_tracks():
    # the sweep is only meaningful if the commit group is multi-write
    assert _WRITE_COUNT >= 4


@pytest.mark.parametrize("crash_at", range(_WRITE_COUNT))
def test_crash_at_every_offset_lands_previous_epoch(crash_at):
    disk = _DISK.clone()
    store = StableStore.open(disk)
    disk.crash_after(crash_at)
    with pytest.raises(DiskCrashed):
        _commit(store, writes=_update_writes(_OIDS))
    disk.restart()
    recovered = StableStore.open(disk)
    assert recovered.commit_manager.current_epoch == _BASE_EPOCH
    for index, oid in enumerate(_OIDS):
        assert recovered.object(oid).value("v") == f"old{index}"


def test_crash_after_final_write_lands_new_epoch():
    """One past the sweep: the whole group reached the platter."""
    disk = _DISK.clone()
    store = StableStore.open(disk)
    disk.crash_after(_WRITE_COUNT)
    _commit(store, writes=_update_writes(_OIDS))
    disk.restart()
    recovered = StableStore.open(disk)
    assert recovered.commit_manager.current_epoch == _BASE_EPOCH + 1
    for oid, name, value in _update_writes(_OIDS):
        assert recovered.object(oid).value(name) == value


def lose_one_write(disk, at):
    """The *at*-th write from now fails transiently, once; the rest land."""
    write_track, count = disk.write_track, itertools.count()

    def write(track, data):
        if next(count) == at:
            raise TransientDiskError(f"transient write failure on track {track}")
        write_track(track, data)

    disk.write_track = write


def _spread():
    """The base platter with each record moved to a track of its own, and
    the write count of a commit that rewrites the first of them."""
    disk = _DISK.clone()
    _commit(StableStore.open(disk), writes=_update_writes(_OIDS))
    probe = disk.clone()
    before = probe.stats.writes
    _commit(StableStore.open(probe), writes=_VICTIM)
    return disk, probe.stats.writes - before


#: a rewrite of the first record whose retry takes two tracks: were the
#: track the record leaves freed by the failed try, the retry would take
#: the free one below it and that one
_VICTIM = [(_OIDS[0], "v", "again" + "x" * 150)]
_SPREAD, _VICTIM_WRITES = _spread()


@pytest.mark.parametrize("fail_at", range(_VICTIM_WRITES))
def test_a_failed_group_then_a_crash_inside_its_retry_lands_previous_epoch(fail_at):
    """A group that fails before its root frees no track the old root
    reaches: the retry, which takes the lowest free track, cannot write
    over the record that root still names."""
    base = StableStore.open(_SPREAD.clone())
    epoch, reached = base.commit_manager.current_epoch, base._allocated()
    for crash_at in range(_VICTIM_WRITES):
        disk = _SPREAD.clone()
        store = StableStore.open(disk)
        lose_one_write(disk, fail_at)
        with pytest.raises(TransientDiskError):
            _commit(store, writes=_VICTIM)
        assert store.tracks.allocated_tracks() == reached
        disk.crash_after(crash_at)
        with pytest.raises(DiskCrashed):
            _commit(store, writes=_VICTIM)
        disk.restart()
        recovered = StableStore.open(disk)
        assert recovered.commit_manager.current_epoch == epoch
        for oid, name, value in _update_writes(_OIDS):
            assert recovered.object(oid).value(name) == value
