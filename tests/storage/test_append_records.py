"""Append-form records: a commit adds associations, not a new record.

PAPER §6 stores an element as a name and a table of associations to
which a commit only ever adds a (transaction time, value) pair.  A
record that spans tracks is therefore not re-encoded by a commit: the
transaction's bindings are encoded alone and appended to the record's
last fragment.  These tests pin what that costs (O(delta)), when it must
*not* happen (the safety rule), that every whole-record writer folds the
tail back in, and that the platter format says honestly what it is.
"""

import json
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import GemStone
from repro.concurrency import SessionObjectManager, TransactionManager
from repro.core import GemObject
from repro.dr.verify import disk_digest, logical_diff, reopen_cold_diff
from repro.errors import CodecError, RecoveryError
from repro.storage import (
    ArchiveMedia,
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
    decode_object,
    decode_root,
    encode_appends,
    encode_object,
    encode_root,
)
from repro.storage.commit import decode_root_track
from repro.storage.filedisk import FileDisk

DATA = Path(__file__).parent / "data"
WIDE = 2000


def make_store(track_size=512, track_count=4096):
    disk = SimulatedDisk(DiskGeometry(track_count=track_count, track_size=track_size))
    return StableStore.format(disk), disk


def commit(store, creations, writes):
    linker = Linker(store)
    tx_time = store.last_tx_time + 1
    dirty = linker.incorporate(creations, writes, tx_time)
    store.persist(dirty, tx_time, deltas=linker.deltas)
    return tx_time


def new_object(store):
    return GemObject(oid=store.allocate_oid(), class_oid=store.classes["Object"])


def wide_object(store, elements=WIDE):
    obj = new_object(store)
    commit(
        store,
        [Creation(obj)],
        [Write(obj.oid, f"k{i:04d}", 100_000 + i) for i in range(elements)],
    )
    return store.object(obj.oid)


def reopened(disk):
    return StableStore.open(disk)


def assert_reopens_as_live(store, disk):
    cold = SimpleNamespace(store=reopened(disk))
    assert logical_diff(SimpleNamespace(store=store), cold) == []


@pytest.fixture
def encodes(monkeypatch):
    """Every whole-record encode ``persist`` makes: (oid, bytes)."""
    calls = []
    real = stable.encode_object

    def counted(obj):
        data = real(obj)
        calls.append((obj.oid, len(data)))
        return data

    monkeypatch.setattr(stable, "encode_object", counted)
    return calls


class TestRecordGrammar:
    def test_a_record_with_no_appends_decodes_as_before(self):
        obj = GemObject(oid=7, class_oid=2)
        obj.bind("a", 1, time=3)
        obj.bind("a", 2, time=5)
        again = decode_object(encode_object(obj))
        assert list(again.history_of("a")) == [(3, 1), (5, 2)]

    def test_appends_extend_tables_and_add_elements(self):
        obj = GemObject(oid=7, class_oid=2)
        obj.bind("a", 1, time=3)
        record = encode_object(obj) + encode_appends([("a", 2), ("b", "x")], 5)
        record += encode_appends([("b", None)], 8)
        again = decode_object(record)
        assert list(again.history_of("a")) == [(3, 1), (5, 2)]
        assert list(again.history_of("b")) == [(5, "x"), (8, None)]
        assert list(again.elements) == ["a", "b"]

    def test_two_appends_at_one_time_are_one_association(self):
        obj = GemObject(oid=7, class_oid=2)
        obj.bind("a", 1, time=3)
        record = encode_object(obj) + encode_appends([("a", 2), ("a", 9)], 5)
        assert list(decode_object(record).history_of("a")) == [(3, 1), (5, 9)]

    def test_a_whole_encode_folds_the_tail_in(self):
        obj = GemObject(oid=7, class_oid=2)
        obj.bind("a", 1, time=3)
        grown = decode_object(encode_object(obj) + encode_appends([("a", 2)], 5))
        obj.bind("a", 2, time=5)
        assert encode_object(grown) == encode_object(obj)


class TestCommitCostsTheDelta:
    def test_no_whole_encode_and_one_track_for_the_object(self, encodes):
        store, disk = make_store(track_size=4096)
        wide = wide_object(store)
        whole = len(encode_object(wide))
        assert len(store.table.get(wide.oid).tracks) > 2
        encodes.clear()
        for n in range(20):
            before = store.table.get(wide.oid).tracks
            writes_before = disk.stats.writes
            commit(store, [], [Write(wide.oid, f"k{n * 97 % WIDE:04d}", n)])
            after = store.table.get(wide.oid).tracks
            # every fragment but the last stayed where it was
            assert after[:-1] == before[:-1] and after[-1] != before[-1]
            # the tail, an object-table page, the page directory, the
            # allocation bitmap and the root — the catalog did not change
            assert disk.stats.writes - writes_before == 5
        assert encodes == []
        assert len(encode_object(wide)) > whole  # the live object did grow
        assert_reopens_as_live(store, disk)

    def test_appended_bytes_are_the_bindings_alone(self, monkeypatch):
        store, _ = make_store(track_size=4096)
        wide = wide_object(store)
        sizes = []
        real = stable.encode_appends
        monkeypatch.setattr(
            stable, "encode_appends",
            lambda bindings, t: sizes.append(len(real(bindings, t))) or real(bindings, t),
        )
        commit(store, [], [Write(wide.oid, "k0007", 123_456)])
        assert sizes == [len(encode_appends([("k0007", 123_456)], store.last_tx_time))]
        assert sizes[0] < 16

    def test_a_record_that_fits_a_track_is_rewritten(self, encodes):
        store, disk = make_store(track_size=4096)
        small = wide_object(store, elements=20)
        assert len(store.table.get(small.oid).tracks) == 1
        encodes.clear()
        commit(store, [], [Write(small.oid, "k0003", 1)])
        assert [oid for oid, _ in encodes] == [small.oid]
        assert len(store.table.get(small.oid).tracks) == 1
        assert_reopens_as_live(store, disk)

    def test_a_caller_without_a_delta_writes_whole(self, encodes):
        store, disk = make_store()
        wide = wide_object(store, elements=200)
        encodes.clear()
        tx_time = store.last_tx_time + 1
        store.persist(
            Linker(store).incorporate([], [Write(wide.oid, "k0001", 5)], tx_time),
            tx_time,
        )
        assert [oid for oid, _ in encodes] == [wide.oid]
        assert_reopens_as_live(store, disk)

    def test_a_full_tail_is_sealed_and_the_rest_spills(self, encodes):
        store, disk = make_store()
        wide = wide_object(store, elements=200)
        start = len(store.table.get(wide.oid).tracks)
        encodes.clear()
        for n in range(40):
            commit(store, [], [Write(wide.oid, "log", "x" * 60 + str(n))])
            assert_reopens_as_live(store, disk)
        assert len(store.table.get(wide.oid).tracks) >= start + 4
        assert encodes == []


class TestSafetyRule:
    def test_a_new_name_appends_a_new_element(self, encodes):
        store, disk = make_store()
        wide = wide_object(store, elements=200)
        encodes.clear()
        commit(store, [], [Write(wide.oid, "brand_new", "here")])
        assert encodes == []
        cold = reopened(disk).object(wide.oid)
        assert cold.value("brand_new") == "here"
        assert list(cold.elements) == list(wide.elements)

    def test_two_writes_to_one_element_decode_to_one_association(self, encodes):
        store, disk = make_store()
        wide = wide_object(store, elements=200)
        encodes.clear()
        t = commit(
            store, [], [Write(wide.oid, "k0001", 1), Write(wide.oid, "k0001", 2)]
        )
        assert encodes == []
        cold = reopened(disk).object(wide.oid)
        assert list(cold.history_of("k0001"))[-1] == (t, 2)
        assert len(list(cold.history_of("k0001"))) == 2  # creation + this

    def test_an_object_a_commit_listener_also_bound_into_is_written_whole(
        self, encodes
    ):
        """Whoever binds into a dirty object after the Linker moves its
        ``version`` past the delta's: the delta is then not everything
        the commit wrote, and the record goes out whole."""
        store, disk = make_store()
        wide = wide_object(store, elements=200)
        other = wide_object(store, elements=200)
        tm = TransactionManager(store)
        session = SessionObjectManager(store, tm)
        session.bind(wide.oid, "k0001", "from the transaction")
        session.bind(other.oid, "k0001", "also from it")
        tm.prepare(session, "g1")
        encodes.clear()

        def listener(tx_time, dirty, writes, creations):
            wide.bind("stamped", "by a listener", tx_time)  # not in any delta

        tm.add_commit_listener(listener)
        tm.commit_prepared("g1")
        # `wide` carried a delta and still went out whole; `other` appended
        assert [oid for oid, _ in encodes] == [wide.oid]
        cold = reopened(disk)
        assert cold.object(wide.oid).value("k0001") == "from the transaction"
        assert cold.object(wide.oid).value("stamped") == "by a listener"
        assert cold.object(other.oid).value("k0001") == "also from it"
        assert_reopens_as_live(store, disk)

    def test_a_class_record_is_always_written_whole(self, encodes):
        """A class record holds more than tables: its instance variable
        names and method sources sit in the first fragment, and changing
        them does not move ``version`` — only a whole write carries them."""
        db = GemStone.create(track_count=4096, track_size=512)
        session = db.login()
        session.execute("Object subclass: #Employee instVarNames: #(name)")
        for i in range(12):
            session.execute(
                f"Employee compile: 'padding{i} ^''{'x' * 60} {i}'''"
            )
        session.execute("| e | e := Employee new. World!e := e")
        session.commit()
        employee = db.store.classes["Employee"]
        assert len(db.store.table.get(employee).tracks) >= 2  # spans tracks
        encodes.clear()
        session.execute("Employee addInstVarName: 'salary'")
        session.execute("Employee compile: 'salary: s salary := s'")
        session.execute("Employee compile: 'salary ^salary'")
        session.commit()
        assert employee in [oid for oid, _ in encodes]
        assert reopen_cold_diff(db) == []
        cold = GemStone.open(db.disk).login()
        assert "salary" in cold.execute("Employee instVarNames")
        cold.execute("World!e salary: 99")
        assert cold.execute("World!e salary") == 99


class TestWholeWritersFoldTheTailIn:
    def grown(self):
        db = GemStone.create(track_count=4096, track_size=512)
        session = db.login()
        for i in range(120):
            session.execute(f"World!k{i:03d} := {i}")
        session.commit()
        for i in range(60):
            session.execute(f"World!k{i % 120:03d} := 'v{i}'")
            session.commit()
        return db, session

    def test_compact_reads_and_redensifies_an_appended_record(self):
        db, session = self.grown()
        world = db.store.catalog["world"]
        before = len(db.store.table.get(world).tracks)
        appended = len(db.store._read_record(world, db.store.table.get(world).tracks))
        db.compact()
        tracks = db.store.table.get(world).tracks
        dense = db.store._read_record(world, tracks)
        assert dense == encode_object(db.store.object(world))
        assert len(dense) < appended and len(tracks) <= before
        cold = GemStone.open(db.disk)
        assert logical_diff(db, cold) == []
        assert cold.login().execute("World!k059") == "v59"

    def test_archive_object_carries_the_appended_record(self):
        db, session = self.grown()
        world = db.store.catalog["world"]
        media = ArchiveMedia("tape-1")
        live = encode_object(db.store.object(world))
        db.archive_object(world, media)
        db.store.archive_drive.mount(media)
        assert encode_object(db.store.object(world)) == live


class TestFormatHonesty:
    def parent_platter(self, tmp_path):
        path = tmp_path / "parent_format.platter"
        shutil.copy(DATA / "parent_format.platter", path)
        meta = json.loads((DATA / "parent_format.json").read_text())
        return FileDisk.open(str(path)), meta

    def test_a_platter_written_by_the_parent_commit_opens_unchanged(self, tmp_path):
        disk, meta = self.parent_platter(tmp_path)
        digest = disk_digest(disk)
        db = GemStone.open(disk)
        assert db.store.commit_manager.current_epoch == meta["epoch"]
        assert db.store.last_tx_time == meta["last_tx_time"]
        session = db.login()
        for source, value in meta["expected"].items():
            assert session.execute(source) == value
        assert disk_digest(disk) == digest  # opening wrote nothing

    def test_and_grows_by_appends_from_then_on(self, tmp_path, encodes):
        disk, meta = self.parent_platter(tmp_path)
        db = GemStone.open(disk)
        world = db.store.catalog["world"]
        assert len(db.store.table.get(world).tracks) == meta["world_fragments"] >= 2
        session = db.login()
        session.execute("World!k03 := 'appended'")
        session.commit()
        assert encodes == []
        disk.close()
        cold = GemStone.open(FileDisk.open(disk.path)).login()
        assert cold.execute("World!k03") == "appended"
        assert cold.execute("World!k04") == meta["expected"]["World!k04"]
        assert cold.execute("World!ellen salary") == 42

    def test_new_roots_carry_a_magic_the_parent_does_not_know(self):
        store, disk = make_store()
        slot = store.commit_manager._current_slot
        payload = disk.read_track(slot)[4:8]
        assert payload == ROOT_MAGIC != b"GSRT"
        fields = decode_root_track(disk.read_track(slot))
        # a reader that only knows the old magic — the parent's decode_root —
        # takes this root for garbage, finds no other, and refuses to open
        with pytest.raises(CodecError):
            decode_root(b"XXXX" + encode_root(fields)[4:])

    def test_a_platter_with_no_root_it_knows_is_refused_with_a_typed_error(self):
        store, disk = make_store()
        for slot in (0, 1):
            if disk.is_written(slot):
                image = bytearray(disk.read_track(slot))
                image[4:8] = b"GSR9"  # some later format
                disk.write_track(slot, bytes(image))
        with pytest.raises(RecoveryError):
            StableStore.open(disk)


class TestSmallWastes:
    def test_one_dirty_object_is_not_walked_to_be_ordered(self, monkeypatch):
        store, _ = make_store()
        wide = wide_object(store, elements=200)

        def walked(self, time=None):
            raise AssertionError("ordering a list of one walked its elements")

        monkeypatch.setattr(GemObject, "items_at", walked)
        assert Linker(store).incorporate(
            [], [Write(wide.oid, "k0001", 1)], store.last_tx_time + 1
        ) == [wide]

    def test_the_catalog_is_rewritten_only_when_it_changes(self):
        store, disk = make_store()
        wide = wide_object(store, elements=20)
        kept = list(store._catalog_tracks)
        commit(store, [], [Write(wide.oid, "k0001", 1)])
        assert store._catalog_tracks == kept
        tx_time = store.last_tx_time + 1
        store.persist([], tx_time, catalog_updates={"extra": wide.oid})
        assert store._catalog_tracks != kept
        assert reopened(disk).catalog["extra"] == wide.oid

    def test_a_reopened_store_keeps_its_catalog_tracks_too(self):
        store, disk = make_store()
        wide = wide_object(store, elements=20)
        again = reopened(disk)
        kept = list(again._catalog_tracks)
        commit(again, [], [Write(wide.oid, "k0001", 1)])
        assert again._catalog_tracks == kept
        assert reopened(disk).catalog == again.catalog
