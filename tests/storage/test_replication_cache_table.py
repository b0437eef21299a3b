"""Unit tests: replication, object cache, object table."""

import pytest

from repro.core import GemObject
from repro.errors import ChecksumError, DiskCrashed, DiskError, StorageError
from repro.storage import (
    DiskGeometry,
    Location,
    ObjectCache,
    ObjectTable,
    PAGE_SPAN,
    ReplicatedDisk,
    SimulatedDisk,
    StableStore,
)
from repro.storage.codec import Writer
from repro.storage.object_table import decode_page_directory
from repro.storage.replication import EPOCH_HEADER_SIZE


def make_replicas(n=3):
    geometry = DiskGeometry(track_count=64, track_size=256)
    return [SimulatedDisk(geometry) for _ in range(n)]


class TestReplication:
    def test_write_reaches_all_replicas(self):
        replicas = make_replicas()
        volume = ReplicatedDisk(replicas)
        volume.write_track(5, b"data")
        # each platter image carries the epoch stamp, then the payload
        assert all(
            r.read_track(5)[EPOCH_HEADER_SIZE:].startswith(b"data")
            for r in replicas
        )

    def test_read_survives_one_corrupt_replica(self):
        replicas = make_replicas()
        volume = ReplicatedDisk(replicas)
        volume.write_track(5, b"data")
        replicas[0].corrupt_track(5)
        assert volume.read_track(5).startswith(b"data")

    def test_read_repair_fixes_corrupt_copy(self):
        replicas = make_replicas()
        volume = ReplicatedDisk(replicas)
        volume.write_track(5, b"data")
        replicas[0].corrupt_track(5)
        volume.read_track(5)
        assert volume.repairs == 1
        assert replicas[0].read_track(5)[EPOCH_HEADER_SIZE:].startswith(b"data")

    def test_read_survives_downed_replica(self):
        replicas = make_replicas()
        volume = ReplicatedDisk(replicas)
        volume.write_track(5, b"data")
        replicas[0].crash_after(0)
        try:
            replicas[0].write_track(6, b"x")
        except DiskCrashed:
            pass
        assert volume.read_track(5).startswith(b"data")

    def test_all_replicas_corrupt_fails(self):
        replicas = make_replicas(2)
        volume = ReplicatedDisk(replicas)
        volume.write_track(5, b"data")
        for r in replicas:
            r.corrupt_track(5)
        with pytest.raises(ChecksumError):
            volume.read_track(5)

    def test_write_skips_down_replica(self):
        replicas = make_replicas(2)
        volume = ReplicatedDisk(replicas)
        replicas[0].crash_after(0)
        volume.write_track(3, b"ok")  # replica 1 still accepts
        assert replicas[1].is_written(3)

    def test_all_down_write_fails(self):
        replicas = make_replicas(2)
        volume = ReplicatedDisk(replicas)
        for r in replicas:
            r.crash_after(0)
        with pytest.raises(DiskCrashed):
            volume.write_track(3, b"x")

    def test_mismatched_geometry_rejected(self):
        a = SimulatedDisk(DiskGeometry(track_count=64, track_size=256))
        b = SimulatedDisk(DiskGeometry(track_count=32, track_size=256))
        with pytest.raises(DiskError):
            ReplicatedDisk([a, b])

    def test_empty_replica_set_rejected(self):
        with pytest.raises(DiskError):
            ReplicatedDisk([])

    def test_stable_store_runs_on_replicated_volume(self):
        volume = ReplicatedDisk(make_replicas())
        store = StableStore.format(volume)
        assert store.class_named("Object").name == "Object"
        reopened = StableStore.open(volume)
        assert reopened.classes == store.classes


class TestObjectCache:
    def obj(self, oid):
        return GemObject(oid=oid, class_oid=1)

    def test_hit_and_miss_counting(self):
        cache = ObjectCache()
        cache.put(self.obj(1))
        assert cache.get(1) is not None
        assert cache.get(2) is None
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = ObjectCache(capacity=2)
        cache.put(self.obj(1))
        cache.put(self.obj(2))
        cache.get(1)          # 1 is now most recent
        cache.put(self.obj(3))
        assert cache.get(2) is None
        assert cache.get(1) is not None

    def test_unbounded_by_default(self):
        cache = ObjectCache()
        for i in range(1000):
            cache.put(self.obj(i))
        assert len(cache) == 1000

    def test_flush(self):
        cache = ObjectCache()
        cache.put(self.obj(1))
        cache.flush()
        assert len(cache) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ObjectCache(capacity=0)

    def test_reset_stats(self):
        cache = ObjectCache()
        cache.get(5)
        cache.reset_stats()
        assert cache.misses == 0
        assert cache.hit_rate == 0.0


class TestObjectTable:
    def test_set_and_get(self):
        table = ObjectTable()
        table.set_tracks(10, [5, 6])
        assert table.get(10) == Location(tracks=(5, 6))
        assert 10 in table

    def test_missing(self):
        assert ObjectTable().get(10) is None

    def test_track_refcounting(self):
        table = ObjectTable()
        table.set_tracks(1, [5])
        table.set_tracks(2, [5, 6])
        assert table.tracks_in_use() == {5, 6}
        table.set_tracks(1, [7])
        assert table.tracks_in_use() == {5, 6, 7}
        table.set_tracks(2, [7])
        assert table.tracks_in_use() == {7}
        assert not table.track_is_used(5)

    def test_archival(self):
        table = ObjectTable()
        table.set_tracks(1, [5])
        table.set_archived(1, archive_key=42)
        assert table.get(1).archived
        assert table.get(1).archive_key == 42
        assert not table.track_is_used(5)

    def test_empty_tracks_rejected(self):
        with pytest.raises(StorageError):
            ObjectTable().set_tracks(1, [])

    def test_dirty_page_tracking(self):
        table = ObjectTable()
        table.set_tracks(3, [5])
        table.set_tracks(PAGE_SPAN + 1, [6])
        assert table.dirty_pages() == {0, 1}
        table.clear_dirty()
        assert table.dirty_pages() == set()

    def test_page_roundtrip(self):
        table = ObjectTable()
        table.set_tracks(3, [5, 6])
        table.set_archived(7, 99)
        data = table.encode_page(0)
        fresh = ObjectTable()
        assert fresh.load_page(data, 16) == 0
        assert fresh.get(3) == Location(tracks=(5, 6))
        assert fresh.get(7) == Location(archive_key=99)
        assert fresh.get(4) is None
        assert fresh.tracks_in_use() == {5, 6}

    def test_page_directory_roundtrip(self):
        # the blob a platter before the contents record holds: what its
        # writer put down, decoded by the legacy open
        directory = {0: (5,), 3: (9, 10), 7: (12,)}
        writer = Writer()
        writer.uvarint(len(directory))
        for page, tracks in directory.items():
            writer.uvarint(page)
            writer.uvarint(len(tracks))
            for track in tracks:
                writer.uvarint(track)
        assert decode_page_directory(writer.getvalue()) == directory
