"""Unit tests for the Boxer and the Track Manager."""

import pytest

from repro.errors import DiskError, StorageError
from repro.storage import (
    Boxer,
    DiskGeometry,
    Fragment,
    RESERVED_TRACKS,
    SimulatedDisk,
    TrackManager,
    assemble,
    read_entries,
)
from repro.storage.boxer import TrackImageBuilder, find_fragment


class TestBoxerPacking:
    def test_small_records_share_a_track(self):
        boxer = Boxer(track_size=512)
        records = [(i, bytes([i]) * 20) for i in range(5)]
        result = boxer.pack(records)
        assert len(result.images) == 1
        assert all(result.placements[i] == [0] for i in range(5))

    def test_order_preserved_within_track(self):
        boxer = Boxer(track_size=512)
        result = boxer.pack([(3, b"a" * 10), (1, b"b" * 10), (2, b"c" * 10)])
        oids = [f.oid for f in read_entries(result.images[0])]
        assert oids == [3, 1, 2]

    def test_overflow_starts_new_track(self):
        boxer = Boxer(track_size=128)
        records = [(i, bytes(60)) for i in range(4)]
        result = boxer.pack(records)
        assert len(result.images) > 1
        # every record still single-fragment
        for i in range(4):
            assert len(result.placements[i]) == 1

    def test_large_object_fragments_across_tracks(self):
        """Objects may exceed a track: no 64KB-style ceiling."""
        boxer = Boxer(track_size=256)
        big = bytes(range(256)) * 8  # 2048 bytes >> track
        result = boxer.pack([(7, big)])
        assert len(result.placements[7]) > 1
        fragments = [
            f
            for image in result.images
            for f in read_entries(image)
            if f.oid == 7
        ]
        assert assemble(fragments, len(result.placements[7])) == big

    def test_fragments_land_in_recorded_images(self):
        boxer = Boxer(track_size=256)
        big = bytes(1000)
        result = boxer.pack([(1, b"xx"), (7, big), (2, b"yy")])
        for seq, image_index in enumerate(result.placements[7]):
            found = find_fragment(result.images[image_index], 7, seq)
            assert found.total == len(result.placements[7])

    def test_duplicate_oid_rejected(self):
        boxer = Boxer(track_size=256)
        with pytest.raises(Exception):
            boxer.pack([(1, b"a"), (1, b"b")])

    def test_empty_pack(self):
        result = Boxer(track_size=256).pack([])
        assert result.images == []
        assert result.placements == {}

    def test_tiny_track_size_rejected(self):
        with pytest.raises(ValueError):
            Boxer(track_size=10)

    def test_images_fit_in_track(self):
        boxer = Boxer(track_size=200)
        records = [(i, bytes(i * 13 % 190)) for i in range(30)]
        result = boxer.pack(records)
        assert all(len(image) <= 200 for image in result.images)


class TestTrackImages:
    def test_read_entries_stops_at_terminator(self):
        builder = TrackImageBuilder(128)
        builder.add(Fragment(5, 0, 1, b"abc"))
        image = builder.finish() + b"\x07garbage"
        entries = list(read_entries(image))
        assert len(entries) == 1
        assert entries[0].payload == b"abc"

    def test_assemble_rejects_incomplete_chain(self):
        with pytest.raises(Exception):
            assemble([Fragment(1, 0, 3, b"a"), Fragment(1, 2, 3, b"c")], 3)

    def test_assemble_orders_by_seq(self):
        data = assemble([Fragment(1, 1, 2, b"b"), Fragment(1, 0, 2, b"a")], 2)
        assert data == b"ab"


@pytest.fixture
def tm():
    return TrackManager(SimulatedDisk(DiskGeometry(track_count=32, track_size=128)))


class TestTrackManager:
    def test_root_slots_pre_allocated(self, tm):
        assert set(RESERVED_TRACKS) <= tm.allocated_tracks()

    def test_allocate_prefers_contiguous(self, tm):
        run = tm.allocate(4)
        assert run == [2, 3, 4, 5]

    def test_allocate_skips_allocated(self, tm):
        first = tm.allocate(2)
        second = tm.allocate(2)
        assert not set(first) & set(second)

    def test_release_and_reuse(self, tm):
        run = tm.allocate(3)
        tm.release(run)
        assert tm.allocate(3) == run

    def test_cannot_release_reserved(self, tm):
        with pytest.raises(StorageError):
            tm.release([0])

    def test_disk_full(self, tm):
        with pytest.raises(StorageError):
            tm.allocate(100)

    def test_fragmented_allocation_falls_back(self, tm):
        a = tm.allocate(28)       # nearly fill
        tm.release(a[::2])        # free every other track
        run = tm.allocate(3)      # no contiguous run of 3 exists
        assert len(run) == 3
        assert len(set(run)) == 3

    def test_write_respects_reserved(self, tm):
        with pytest.raises(DiskError):
            tm.write(0, b"x")

    def test_write_group_in_ascending_order(self, tm):
        tm.write_group({9: b"c", 3: b"a", 5: b"b"})
        # elevator order => head ends at the highest track
        assert tm.disk.read_track(3).startswith(b"a")
        assert tm.disk.stats.writes == 3

    def test_bitmap_roundtrip(self, tm):
        tm.allocate(5)
        saved = tm.bitmap_bytes()
        fresh = TrackManager(SimulatedDisk(DiskGeometry(track_count=32, track_size=128)))
        fresh.load_bitmap(saved)
        assert fresh.allocated_tracks() == tm.allocated_tracks()

    def test_bitmap_leaves_out_excluded_tracks(self, tm):
        run = tm.allocate(7)
        fresh = TrackManager(SimulatedDisk(DiskGeometry(track_count=32, track_size=128)))
        fresh.load_bitmap(tm.bitmap_bytes(excluding={run[2], run[5]}))
        assert fresh.allocated_tracks() == tm.allocated_tracks() - {run[2], run[5]}

    def test_read_many_deduplicates(self, tm):
        run = tm.allocate(2)
        tm.write(run[0], b"x")
        result = tm.read_many([run[0], run[0], run[1]])
        assert set(result) == set(run)
