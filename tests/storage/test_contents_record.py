"""The contents record and the allocation derived from it.

No bitmap is written: the allocated set is what the root reaches — the
root slots, every track the object table references, every track a
directory entry references (an older contents record still holding a
live section) and the current record's own.  These nets walk the
platter from the root on their own and hold the store to that set after
every commit, and show what reusing a reached track would destroy.
"""

import random

import pytest

from repro import GemStone
from repro.core import GemObject
from repro.dr.verify import reopen_cold_diff
from repro.errors import CodecError, DiskCrashed
from repro.storage import (
    ArchiveMedia,
    Creation,
    DiskGeometry,
    Linker,
    SimulatedDisk,
    StableStore,
    Write,
)
from repro.storage.codec import CONTENTS_OID
from repro.storage.commit import ROOT_SLOTS, CommitManager
from repro.storage.object_table import PAGE_SPAN, ObjectTable
from repro.storage.stable import read_contents
from repro.storage.tracks import TrackManager


def reached_from_the_root(disk):
    """Every track the newest root leads to, found by reading the platter."""
    fields = CommitManager(TrackManager(disk)).recover()
    contents = fields["contents_tracks"]
    directory, sections = read_contents(disk.read_track, contents)
    table = ObjectTable()
    for section, data in sections.items():
        if isinstance(section, int):
            table.load_page(data, disk.track_count)
    reached = {*ROOT_SLOTS, *contents, *table.tracks_in_use()}
    for entry in directory.values():
        reached.update(entry.tracks)
    return reached


def small_db(track_count=256):
    return GemStone.create(track_count=track_count, track_size=512)


def churn(db, rounds, seed=48):
    """Commits of every kind: appends and spills on a multi-track World,
    new objects, a class (the catalog), notes set and dropped."""
    rng = random.Random(seed)
    session = db.login()
    for i in range(80):
        session.execute(f"World!k{i:03d} := {i}")
    session.commit()
    yield
    for round_ in range(rounds):
        kind = rng.randrange(5)
        if kind == 0:
            session.execute(f"World!k{rng.randrange(80):03d} := {round_}")
            session.commit()
        elif kind == 1:
            session.execute(f"World!o{round_} := Object new")
            session.commit()
        elif kind == 2:
            session.execute(f"Object subclass: #C{round_} instVarNames: #(x)")
            session.commit()
        elif kind == 3:
            db.store.persist([], db.store.last_tx_time, note={"n": b"%d" % round_ * 40})
        else:
            db.store.persist([], db.store.last_tx_time, note={"n": b""})
        yield


class TestTheDerivedAllocation:
    def test_after_every_commit_the_store_holds_exactly_what_the_root_reaches(self):
        db = small_db()
        for _ in churn(db, 60):
            assert db.store.tracks.allocated_tracks() == reached_from_the_root(db.disk)

    def test_a_cold_open_derives_the_live_set_after_every_commit(self):
        db = small_db()
        for _ in churn(db, 25, seed=7):
            assert reopen_cold_diff(db) == []

    def test_an_older_record_holding_a_live_section_outlives_reuse(self):
        # a catalog-only record sits on a track of its own; a small
        # platter recycles every other track many times over around it
        db = small_db(track_count=48)
        alias = {"Extra": db.store.classes["Object"]}
        db.store.persist([], db.store.last_tx_time, new_classes=alias)
        held = db.store._directory["catalog"].tracks
        assert not set(held) & db.store.table.tracks_in_use()
        session = db.login()
        for i in range(300):
            session.execute(f"World!k{i % 40:02d} := {i}")
            session.commit()
        assert db.store._directory["catalog"].tracks == held
        assert StableStore.open(db.disk.clone()).catalog == db.store.catalog
        assert reopen_cold_diff(db) == []

    def test_a_note_only_record_outlives_the_commits_that_point_into_it(self):
        db = small_db(track_count=48)
        session = db.login()
        for i in range(20):
            db.store.persist([], db.store.last_tx_time, note={"n": b"%d" % i})
            held = tuple(db.store._contents_tracks)
            for j in range(3):
                session.execute(f"World!k{(i + j) % 40:02d} := {i}")
                session.commit()
                assert db.store._directory["note"].tracks == held
                assert StableStore.open(db.disk.clone()).note == {"n": b"%d" % i}

    def test_a_crash_after_a_directory_only_record_recovers_it(self):
        # dropping the note writes a record of pointers alone, on a track
        # of its own: the next commit must not write over it before its
        # own root is down
        db = small_db(track_count=48)
        session = db.login()
        db.store.persist([], db.store.last_tx_time, note={"n": b"x"})
        db.store.persist([], db.store.last_tx_time, note={"n": b""})
        epoch = db.store.commit_manager.current_epoch
        db.disk.crash_after(2)  # two data tracks land, the root does not
        session.execute(f"World!k00 := '{'x' * 700}'")
        with pytest.raises(DiskCrashed):
            session.commit()
        db.disk.restart()
        recovered = GemStone.open(db.disk)
        assert recovered.store.commit_manager.current_epoch == epoch
        assert recovered.store.catalog == db.store.catalog
        assert recovered.login().execute("World!k00") is None

    def test_archiving_frees_the_record_at_the_commit_not_before(self):
        store = StableStore.format(SimulatedDisk(DiskGeometry(256, 512)))
        obj = GemObject(oid=store.allocate_oid(), class_oid=store.classes["Object"])
        tx_time = store.last_tx_time + 1
        dirty = Linker(store).incorporate(
            [Creation(obj)], [Write(obj.oid, f"k{i:03d}", i) for i in range(150)], tx_time
        )
        store.persist(dirty, tx_time)
        tracks = set(store.table.get(obj.oid).tracks)
        assert len(tracks) > 1
        store.archive_object(obj.oid, ArchiveMedia())
        assert tracks <= store.tracks.allocated_tracks()  # not durable yet
        store.persist([], store.last_tx_time + 1)
        assert tracks.isdisjoint(store.tracks.allocated_tracks())
        assert store.tracks.allocated_tracks() == reached_from_the_root(store.disk)


class TestTheRecordRidesTheData:
    def test_the_contents_record_is_boxed_as_oid_0_behind_the_data(self):
        db = small_db()
        session = db.login()
        session.execute("World!a := 1")
        session.commit()
        world = db.store.table.get(db.store.catalog["world"]).tracks
        assert db.store._contents_tracks == [world[-1]]
        record = db.store._read_record(CONTENTS_OID, db.store._contents_tracks)
        assert record.startswith(b"GC")

    def test_a_commit_that_changes_no_section_writes_only_the_root(self):
        store = StableStore.format(SimulatedDisk(DiskGeometry(256, 512)))
        before = store.disk.stats.writes
        contents = store._contents_tracks
        store.persist([], store.last_tx_time + 1)
        assert store.disk.stats.writes - before == 1
        assert store._contents_tracks == contents
        assert StableStore.open(store.disk).last_tx_time == store.last_tx_time

    def test_a_page_section_lists_only_the_oids_it_holds(self):
        table = ObjectTable()
        table.set_tracks(5 * PAGE_SPAN + 7, [40, 41])
        image = table.encode_page(5)
        assert image == bytes([5, 7, 1, 2, 40, 41])  # page, slot, kind, n, tracks
        for damaged in (image + bytes([7, 1, 1, 9]), image + bytes([3, 1, 1, 9]),
                        image + bytes([PAGE_SPAN & 0x7F | 0x80, PAGE_SPAN >> 7, 1, 1, 9])):
            with pytest.raises(CodecError):  # a slot again, behind, past the page
                ObjectTable().load_page(damaged, 64)
