"""The note: a small root-published blob beside the catalog.

Protocol state that must change atomically with a commit, but is not
database state, rides the root flip as a name → bytes map: rewritten
only when it changes, no history, no object, and — the rule every other
workload depends on — no track and no byte when it is empty.
"""

import json
import random
import shutil
from pathlib import Path

import pytest

from repro import GemStone
from repro.core import GemObject
from repro.dr.verify import disk_digest, reopen_cold_diff
from repro.errors import ChecksumError, CodecError, RecoveryError, TransientDiskError
from repro.faults import FaultPlan, FaultSpec, FaultyDisk
from repro.storage import (
    Creation,
    DiskGeometry,
    Linker,
    SimulatedDisk,
    StableStore,
    Write,
    stable,
)
from repro.storage.codec import (
    ROOT_MAGIC,
    Writer,
    decode_note,
    decode_root,
    encode_note,
    encode_root,
)
from repro.storage.commit import decode_root_track, encode_root_track
from repro.storage.filedisk import FileDisk
from repro.storage.object_table import PAGE_SPAN, ObjectTable

DATA = Path(__file__).parent / "data"
TYPED = (CodecError, ChecksumError, RecoveryError)


def make_store(track_size=512, track_count=1024):
    disk = SimulatedDisk(DiskGeometry(track_count=track_count, track_size=track_size))
    return StableStore.format(disk), disk


def commit(store, creations=(), writes=(), **extra):
    linker = Linker(store)
    tx_time = store.last_tx_time + 1
    dirty = linker.incorporate(list(creations), list(writes), tx_time)
    return store.persist(dirty, tx_time, deltas=linker.deltas, **extra)


def an_object(store):
    obj = GemObject(oid=store.allocate_oid(), class_oid=store.classes["Object"])
    commit(store, [Creation(obj)], [Write(obj.oid, "v", 0)])
    return obj


def root_fields(disk, store):
    return decode_root_track(disk.read_track(store.commit_manager._current_slot))


class TestAnEmptyNoteCostsNothing:
    def test_no_track_is_written_allocated_or_listed_for_it(self):
        store, disk = make_store()
        obj = an_object(store)
        allocated = len(store.tracks.allocated_tracks())
        before = disk.stats.writes
        commit(store, writes=[Write(obj.oid, "v", 1)])
        # the object's track, its table page, the directory, bitmap, root
        assert disk.stats.writes - before == 5
        assert len(store.tracks.allocated_tracks()) == allocated
        assert store.note == {} and store._note_tracks == []
        assert root_fields(disk, store)["note_tracks"] == []

    def test_nor_is_one_read_when_the_platter_is_opened(self):
        store, disk = make_store()
        an_object(store)
        listed = root_fields(disk, store)
        cold_disk = disk.clone()
        cold = StableStore.open(cold_disk)
        expected = 1 + sum(  # the root, then every track it leads to
            len(listed[key])
            for key in ("object_table_tracks", "allocation_tracks", "catalog_tracks")
        ) + sum(len(tracks) for tracks in cold._page_directory.values())
        assert cold_disk.stats.reads <= expected + 1  # at most both root slots
        assert cold.note == {}

    def test_dropping_the_last_name_gives_the_tracks_back(self):
        store, disk = make_store()
        allocated = len(store.tracks.allocated_tracks())
        store.persist([], store.last_tx_time, note={"a": b"x" * 700})
        assert len(store._note_tracks) == 2  # 700 bytes on 512-byte tracks
        assert len(store.tracks.allocated_tracks()) == allocated + 2
        store.persist([], store.last_tx_time, note={"a": b""})
        assert store.note == {} and store._note_tracks == []
        assert len(store.tracks.allocated_tracks()) == allocated
        assert StableStore.open(disk).note == {}


class TestTheNoteRidesTheRootFlip:
    def test_it_is_published_with_the_data_and_read_back(self):
        store, disk = make_store()
        obj = an_object(store)
        commit(
            store, writes=[Write(obj.oid, "v", 1)], note={"2pc": b"in doubt: g1"}
        )
        cold = StableStore.open(disk)
        assert cold.note == {"2pc": b"in doubt: g1"} == store.note
        assert cold.object(obj.oid).value("v") == 1
        assert cold.root_has_note

    def test_a_commit_that_does_not_mention_it_keeps_its_tracks(self):
        store, disk = make_store()
        obj = an_object(store)
        store.persist([], store.last_tx_time, note={"2pc": b"g1", "other": b"kept"})
        kept = list(store._note_tracks)
        commit(store, writes=[Write(obj.oid, "v", 2)])
        commit(store, writes=[Write(obj.oid, "v", 3)], note={"2pc": b"g1"})  # same
        assert store._note_tracks == kept
        assert root_fields(disk, store)["note_tracks"] == kept
        # an update replaces one name and leaves the others
        store.persist([], store.last_tx_time, note={"2pc": b"g1 g2"})
        assert store._note_tracks != kept
        assert StableStore.open(disk).note == {"2pc": b"g1 g2", "other": b"kept"}

    def test_a_persist_of_no_objects_writes_note_bitmap_and_root(self):
        store, disk = make_store()
        an_object(store)
        directory = list(store._page_directory_tracks)
        before = disk.stats.writes
        store.persist([], store.last_tx_time, note={"2pc": b"g1"})
        assert disk.stats.writes - before == 3
        assert store._page_directory_tracks == directory  # no page moved
        assert StableStore.open(disk).note == {"2pc": b"g1"}

    def test_it_is_not_history_and_not_an_object(self):
        db = GemStone.create(track_count=1024, track_size=512)
        session = db.login()
        session.execute("World!a := 1")
        session.commit()
        then = db.store.last_tx_time
        oids = list(db.store.all_oids())
        versions = [db.store.object(oid).version for oid in oids]
        for i in range(5):
            db.store.persist([], db.store.last_tx_time, note={"n": b"%d" % i})
        assert db.store.last_tx_time == then  # no transaction time passed
        assert list(db.store.all_oids()) == oids
        assert [db.store.object(oid).version for oid in oids] == versions
        assert db.store.note == {"n": b"4"}  # the current one, nothing older
        assert reopen_cold_diff(db) == []

    def test_a_group_write_that_fails_leaves_the_published_note_in_force(self):
        inner = SimulatedDisk(DiskGeometry(track_count=1024, track_size=512))
        disk = FaultyDisk(inner, FaultPlan(seed=3))
        store = StableStore.format(disk)
        obj = an_object(store)
        store.persist([], store.last_tx_time, note={"2pc": b"old"})
        published = list(store._note_tracks)
        healthy, disk.plan = disk.plan, FaultPlan(3, FaultSpec(transient_rate=1.0))
        with pytest.raises(TransientDiskError):
            store.persist([], store.last_tx_time, note={"2pc": b"never made it"})
        disk.plan = healthy
        assert store.note == {"2pc": b"old"} and store._note_tracks == published
        commit(store, writes=[Write(obj.oid, "v", 9)])
        cold = StableStore.open(disk)
        assert cold.note == {"2pc": b"old"}
        assert cold.object(obj.oid).value("v") == 9


class TestFormatHonesty:
    def parent_platter(self, tmp_path):
        path = tmp_path / "parent_gsr2.platter"
        shutil.copy(DATA / "parent_gsr2.platter", path)
        meta = json.loads((DATA / "parent_gsr2.json").read_text())
        return FileDisk.open(str(path)), meta

    def test_a_platter_written_by_the_parent_commit_opens_unchanged(self, tmp_path):
        disk, meta = self.parent_platter(tmp_path)
        assert disk.read_track(0)[4:8] == b"GSR2" != ROOT_MAGIC
        digest = disk_digest(disk)
        db = GemStone.open(disk)
        assert db.store.commit_manager.current_epoch == meta["epoch"]
        assert db.store.last_tx_time == meta["last_tx_time"]
        assert db.store.note == {} and not db.store.root_has_note
        session = db.login()
        for source, value in meta["expected"].items():
            assert session.execute(source) == value
        assert disk_digest(disk) == digest  # opening wrote nothing

    def test_and_its_first_commit_gives_it_a_note_field(self, tmp_path):
        disk, meta = self.parent_platter(tmp_path)
        db = GemStone.open(disk)
        session = db.login()
        session.execute("World!k03 := 'after the upgrade'")
        session.commit()
        assert db.store.root_has_note and reopen_cold_diff(db) == []
        disk.close()
        cold = GemStone.open(FileDisk.open(disk.path))
        assert cold.store.root_has_note and cold.store.note == {}
        assert cold.login().execute("World!k03") == "after the upgrade"
        assert cold.login().execute("World!k04") == meta["expected"]["World!k04"]

    def test_older_code_finds_no_root_it_knows_in_a_new_platter(self):
        store, disk = make_store()
        assert ROOT_MAGIC not in (b"GSR2", b"GSRT")
        fields = root_fields(disk, store)
        # a root one field short is never what an older reader sees: with
        # the magic it knows, these bytes do not parse as its grammar
        with pytest.raises(CodecError):
            decode_root(b"GSR2" + encode_root(fields)[4:])
        for slot in (0, 1):
            if disk.is_written(slot):
                assert disk.read_track(slot)[4:8] == ROOT_MAGIC


class TestHostileBytes:
    """ROADMAP 7(b) for the new readers: damage is a typed error, never a
    hang, a ``KeyError``/``struct.error``, or a silently shorter note."""

    NOTE = {"2pc": b'{"g0.1": ["World!a := 1"]}', "decisions": b"\x01\x04g0.1\x02\x00\x01"}

    def test_the_note_round_trips(self):
        assert decode_note(encode_note(self.NOTE)) == self.NOTE
        assert decode_note(encode_note({"only": b""})) == {"only": b""}

    def test_every_truncation_and_every_bit_flip_of_a_note_is_refused(self):
        blob = encode_note(self.NOTE)
        for length in range(len(blob)):
            with pytest.raises(TYPED):
                decode_note(blob[:length])
        for bit in range(len(blob) * 8):
            damaged = bytearray(blob)
            damaged[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(TYPED):
                decode_note(bytes(damaged))

    def test_arbitrary_bytes_are_not_a_note(self):
        rng = random.Random(2026)
        for _ in range(500):
            with pytest.raises(TYPED):
                decode_note(rng.randbytes(rng.randrange(0, 80)))

    def test_a_well_checksummed_blob_that_is_not_one_note_is_refused(self):
        from zlib import crc32

        def sealed(payload):
            return payload + crc32(payload).to_bytes(4, "little")

        body = encode_note(self.NOTE)[:-4]
        for payload in (
            body + b"\x00",  # trailing bytes
            b"\x03" + body[1:],  # claims one name more than it holds
            b"\x02\x01a\x01x\x01a\x01y",  # one name twice
            b"\x01\x02\xff\xfe\x00",  # a name that is not UTF-8
            b"\xff" * 12,  # a varint that never ends
        ):
            with pytest.raises(TYPED):
                decode_note(sealed(payload))

    def test_every_truncation_and_bit_flip_of_a_root_track_is_refused(self):
        fields = {
            "epoch": 9, "last_tx_time": 300, "next_oid": 5000, "alias_counter": 2,
            "object_table_tracks": [5, 9], "allocation_tracks": [11],
            "catalog_tracks": [13, 14], "note_tracks": [200, 201],
        }
        track = encode_root_track(fields)
        assert decode_root_track(track) == fields
        for length in range(len(track)):
            with pytest.raises(TYPED):
                decode_root_track(track[:length])
        for bit in range(len(track) * 8):
            damaged = bytearray(track)
            damaged[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(TYPED):
                decode_root_track(bytes(damaged))
        payload = encode_root(fields)
        for length in range(len(payload)):
            with pytest.raises(CodecError):
                decode_root(payload[:length])
        with pytest.raises(CodecError):
            decode_root(payload + b"\x00")

    def test_a_damaged_note_track_fails_the_open_with_a_typed_error(self):
        store, disk = make_store()
        store.persist([], store.last_tx_time, note={"2pc": b"x" * 40})
        (track,) = store._note_tracks
        image = disk.read_track(track)
        rng = random.Random(7)
        for garbage in (b"", image[:3], image[:20], b"\xff" * 512,
                        *(rng.randbytes(512) for _ in range(20))):
            disk.write_track(track, garbage)
            with pytest.raises(TYPED):
                StableStore.open(disk)
        disk.write_track(track, image)
        assert StableStore.open(disk).note == {"2pc": b"x" * 40}


class TestSmallWastes:
    def test_the_catalog_is_encoded_only_by_a_commit_that_touched_it(
        self, monkeypatch
    ):
        store, disk = make_store()
        obj = an_object(store)
        calls = []
        real = stable.encode_catalog
        monkeypatch.setattr(
            stable, "encode_catalog", lambda c: calls.append(1) or real(c)
        )
        for i in range(3):
            commit(store, writes=[Write(obj.oid, "v", i)])
        store.persist([], store.last_tx_time, note={"2pc": b"g1"})
        assert calls == []
        commit(store, catalog_updates={"extra": obj.oid})
        assert calls == [1]
        assert StableStore.open(disk).catalog["extra"] == obj.oid

    def test_a_page_image_is_what_the_writer_would_have_produced(self):
        def reference(table, page):
            writer = Writer()
            writer.uvarint(page)
            for oid in range(page * PAGE_SPAN, (page + 1) * PAGE_SPAN):
                location = table.get(oid)
                if location is None:
                    writer.uvarint(0)
                elif location.archived:
                    writer.uvarint(2)
                    writer.uvarint(location.archive_key)
                else:
                    writer.uvarint(1)
                    writer.uvarint(len(location.tracks))
                    for track in location.tracks:
                        writer.uvarint(track)
            return writer.getvalue()

        rng = random.Random(11)
        table = ObjectTable()
        for page in (0, 3, 700):  # one- and two-byte page numbers
            for oid in rng.sample(range(page * PAGE_SPAN, (page + 1) * PAGE_SPAN), 90):
                if rng.random() < 0.2:
                    table.set_archived(oid, rng.choice((0, 5, 127, 128, 70_000)))
                else:
                    table.set_tracks(oid, [
                        rng.choice((2, 127, 128, 300, 16_383, 16_384, 2_000_000))
                        for _ in range(rng.choice((1, 1, 2, 130)))
                    ])
            image = table.encode_page(page)
            assert image == reference(table, page)
            again = ObjectTable()
            assert again.load_page(image) == page
            assert again.encode_page(page) == image
