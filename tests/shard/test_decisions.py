"""The durable decision log: presumed abort, safe writes, restartability."""

import random
import shutil
from pathlib import Path

import pytest

from repro.errors import ChecksumError, CodecError, RecoveryError
from repro.shard.decisions import NOTE_NAME, DecisionLog
from repro.storage.codec import encode_note
from repro.storage.commit import decode_root_track
from repro.storage.disk import DiskGeometry, SimulatedDisk
from repro.storage.filedisk import FileDisk
from repro.storage.stable import read_note

DATA = Path(__file__).parent / "data"


def fresh_disk(tracks=128, size=512):
    return SimulatedDisk(DiskGeometry(track_count=tracks, track_size=size))


class TestPresumedAbort:
    def test_unknown_gtid_resolves_to_abort(self):
        log = DecisionLog.create(fresh_disk())
        assert log.decision("g0.99") is False

    def test_recorded_commit_resolves_to_commit(self):
        log = DecisionLog.create(fresh_disk())
        log.record_commit("g0.1", [0, 2])
        assert log.decision("g0.1") is True
        assert log.pending() == {"g0.1": (0, 2)}

    def test_forgotten_commit_presumes_abort_again(self):
        # after every participant acked, the entry is dropped: nobody
        # can ever ask again, so ABORT is a safe (if moot) answer
        log = DecisionLog.create(fresh_disk())
        log.record_commit("g0.1", [1])
        log.forget("g0.1")
        assert log.decision("g0.1") is False
        assert log.pending() == {}

    def test_forget_of_unknown_gtid_is_idempotent(self):
        log = DecisionLog.create(fresh_disk())
        log.forget("g0.404")
        assert log.forgotten == 0


class TestDurability:
    def test_decisions_survive_reopen(self):
        disk = fresh_disk()
        log = DecisionLog.create(disk)
        log.record_commit("g0.1", [0, 1])
        log.record_commit("g0.2", [2])
        log.forget("g0.2")
        reopened = DecisionLog.open(disk)
        assert reopened.decision("g0.1") is True
        assert reopened.decision("g0.2") is False
        assert reopened.pending() == {"g0.1": (0, 1)}

    def test_empty_log_reopens_empty(self):
        disk = fresh_disk()
        DecisionLog.create(disk)
        assert DecisionLog.open(disk).pending() == {}

    def test_many_entries_span_multiple_tracks(self):
        disk = fresh_disk(tracks=256, size=64)  # tiny tracks force chunking
        log = DecisionLog.create(disk)
        for i in range(20):
            log.record_commit(f"g0.{i}", [i % 3, 3])
        reopened = DecisionLog.open(disk)
        assert len(reopened.pending()) == 20
        assert reopened.decision("g0.19") is True

    def test_report_counters(self):
        log = DecisionLog.create(fresh_disk())
        log.record_commit("g0.1", [0])
        log.forget("g0.1")
        report = log.report()
        assert report["commits_recorded"] == 1
        assert report["forgotten"] == 1
        assert report["pending"] == 0


class TestSharedFraming:
    """The log is a note on a disk of its own: the storage layer's blob
    framing and root record, nothing private."""

    def test_an_empty_log_is_a_root_and_no_other_track(self):
        disk = fresh_disk()
        log = DecisionLog.create(disk)
        assert log.tracks.allocated_tracks() == {0, 1} and disk.stats.writes == 1
        log.record_commit("g0.1", [0, 1])
        assert len(log.tracks.allocated_tracks()) == 3
        log.forget("g0.1")
        assert log.tracks.allocated_tracks() == {0, 1}
        assert DecisionLog.open(disk).tracks.allocated_tracks() == {0, 1}

    def test_the_root_lists_the_note_and_nothing_else(self):
        disk = fresh_disk()
        log = DecisionLog.create(disk)
        log.record_commit("g0.1", [0, 1])
        fields = decode_root_track(disk.read_track(log.commit_manager._current_slot))
        tracks = fields.pop("note_tracks")
        assert read_note(log.tracks, tracks) == {NOTE_NAME: log._encode()}
        assert fields.pop("epoch") == 2 and not any(fields.values())

    @pytest.mark.parametrize("over", [0, 1])
    def test_a_payload_of_exactly_one_track_and_of_one_byte_more(self, over):
        disk = fresh_disk(size=64)
        log = DecisionLog.create(disk)
        capacity = disk.track_size - 4  # a blob chunk's length prefix
        for padding in range(capacity):
            log._decisions = {"g" * padding: (0, 1)}
            if len(encode_note({NOTE_NAME: log._encode()})) == capacity + over:
                break
        else:
            raise AssertionError("no gtid length lands on the boundary")
        log._persist()
        assert len(log._data_tracks) == 1 + over
        reopened = DecisionLog.open(disk)
        assert reopened.pending() == log.pending() == {"g" * padding: (0, 1)}
        assert reopened.tracks.allocated_tracks() == log.tracks.allocated_tracks()

    def test_a_log_written_by_the_parent_commit_still_answers(self, tmp_path):
        path = tmp_path / "decisions.bin"
        shutil.copy(DATA / "parent_decisions.bin", path)
        disk = FileDisk.open(str(path))
        log = DecisionLog.open(disk)
        assert log.pending() == {"g0.2": (0, 1)}
        assert log.decision("g0.2") and not log.decision("g0.9")
        log.forget("g0.2")  # the first write moves it onto the note
        assert DecisionLog.open(disk).pending() == {}
        assert log.tracks.allocated_tracks() == {0, 1}


class TestHostileBytes:
    def logged(self):
        disk = fresh_disk()
        log = DecisionLog.create(disk)
        log.record_commit("g0.1", [0, 1])
        log.record_commit("g0.2", [1])
        return disk, log

    def test_a_damaged_note_track_is_a_typed_error_not_a_shorter_log(self):
        disk, log = self.logged()
        (track,) = log._data_tracks
        image = disk.read_track(track)
        rng = random.Random(5)
        for garbage in (b"", image[:2], image[:9], image[: len(image.rstrip(b"\0")) - 1],
                        *(rng.randbytes(512) for _ in range(30))):
            disk.write_track(track, garbage)
            with pytest.raises((CodecError, ChecksumError, RecoveryError)):
                DecisionLog.open(disk)
        disk.write_track(track, image)
        disk.corrupt_track(track, flip_byte=7)  # rot under a stale checksum
        with pytest.raises(ChecksumError):
            DecisionLog.open(disk)

    def test_no_valid_root_is_a_recovery_error(self):
        disk, log = self.logged()
        for slot in (0, 1):
            disk.write_track(slot, b"\x07" * 64)
        with pytest.raises(RecoveryError):
            DecisionLog.open(disk)
