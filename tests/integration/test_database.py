"""Integration tests: the GemStone facade across all subsystems."""

import pytest

from repro import GemStone, GemStoneError
from repro.concurrency import Privilege
from repro.errors import (
    ArchiveError,
    AuthorizationError,
    DiskCrashed,
    TransactionConflict,
)
from repro.storage import ArchiveMedia


@pytest.fixture
def db():
    return GemStone.create(track_count=2048, track_size=1024)


class TestLifecycle:
    def test_create_and_login(self, db):
        with db.login() as session:
            assert session.execute("3 + 4") == 7

    def test_world_is_shared_and_persistent(self, db):
        s1 = db.login()
        s1.execute("World!answer := 42")
        s1.commit()
        s2 = db.login()
        assert s2.execute("World!answer") == 42

    def test_python_level_api(self, db):
        session = db.login()
        dept = session.new("Object", Name="Sales", Budget=142000)
        session.assign("sales", dept)
        session.commit()
        assert session.resolve("sales!Budget") == 142000
        session.assign("sales!Budget", 150000)
        session.commit()
        assert session.resolve("sales!Budget") == 150000

    def test_full_reopen_cycle(self, db):
        session = db.login()
        session.execute("""
            Object subclass: #Employee instVarNames: #(name salary).
            Employee compile: 'salary ^salary'.
            Employee compile: 'salary: s salary := s'.
            | e | e := Employee new. e salary: 24650.
            World!ellen := e
        """)
        session.commit()
        reopened = GemStone.open(db.disk)
        s2 = reopened.login()
        assert s2.execute("World!ellen salary") == 24650
        # classes, methods and data all survived
        assert s2.execute("| e | e := Employee new. e salary: 1. e salary") == 1

    def test_crash_between_commits_recovers_last_commit(self, db):
        session = db.login()
        session.execute("World!v := 'first'")
        session.commit()
        db.disk.crash_after(1)  # the shadow track lands, the root does not
        session.execute("World!v := 'second'")
        with pytest.raises(DiskCrashed):
            session.commit()
        db.disk.restart()
        recovered = GemStone.open(db.disk)
        assert recovered.login().execute("World!v") == "first"


class TestTransactionsThroughOpal:
    def test_commit_from_opal(self, db):
        session = db.login()
        assert session.execute(
            "World!n := 1. System commitTransaction"
        ) is True
        other = db.login()
        assert other.execute("World!n") == 1

    def test_conflict_from_opal_returns_false(self, db):
        a, b = db.login(), db.login()
        a.execute("World!n := 0")
        a.commit()
        b.abort()
        a.execute("World!n := World!n + 1")
        b.execute("World!n := World!n + 1")
        assert a.execute("System commitTransaction") is True
        assert b.execute("System commitTransaction") is False

    def test_abort_from_opal(self, db):
        session = db.login()
        session.execute("World!x := 9. System abortTransaction")
        assert session.execute("World!x") is None


class TestHistoryEndToEnd:
    def test_time_dial_through_opal(self, db):
        session = db.login()
        session.execute("World!president := 'Ayn Rand'")
        t1 = session.commit()
        session.execute("World!president := 'Milton Friedman'")
        session.commit()
        assert session.execute("World!president") == "Milton Friedman"
        session.execute(f"System timeDial: {t1}")
        assert session.execute("World!president") == "Ayn Rand"
        session.execute("System timeDial: nil")
        assert session.execute("World!president") == "Milton Friedman"

    def test_safetime_from_opal(self, db):
        session = db.login()
        session.execute("World!x := 1")
        t = session.commit()
        assert session.execute("System safeTime") == t

    def test_history_survives_reopen(self, db):
        session = db.login()
        session.execute("World!city := 'Seattle'")
        t1 = session.commit()
        session.execute("World!city := 'Portland'")
        session.commit()
        reopened = GemStone.open(db.disk)
        s2 = reopened.login()
        assert s2.execute(f"World!city @ {t1}") == "Seattle"
        assert s2.execute("World!city") == "Portland"

    def test_collection_history_after_remove(self, db):
        session = db.login()
        session.execute("""
            | s | s := Set new. s add: 'kept'. s add: 'dropped'.
            World!things := s
        """)
        t1 = session.commit()
        session.execute("World!things remove: 'dropped'")
        session.commit()
        assert session.execute("World!things size") == 1
        session.execute(f"System timeDial: {t1}")
        assert session.execute("World!things size") == 2


class TestDirectoriesEndToEnd:
    def test_directory_used_by_opal_select_after_commit(self, db):
        session = db.login()
        emps = session.execute("""
            Object subclass: #Employee instVarNames: #(salary).
            Employee compile: 'salary: s salary := s'.
            | emps e |
            emps := Bag new.
            1 to: 50 do: [:i | e := Employee new. e salary: i. emps add: e].
            World!employees := emps.
            emps
        """)
        session.commit()
        directory = db.create_directory(emps, "salary")
        count = session.execute(
            "(World!employees select: [:e | e!salary > 45]) size"
        )
        assert count == 5
        assert directory.lookups >= 1

    def test_directory_maintained_across_commits(self, db):
        session = db.login()
        emps = session.execute("| s | s := Bag new. World!emps := s. s")
        session.commit()
        directory = db.create_directory(emps, "salary")
        session.execute("""
            Object subclass: #Worker instVarNames: #(salary).
            | w | w := Worker new. w at: 'salary' put: 777.
            World!emps add: w
        """)
        session.commit()
        assert len(directory.lookup(777)) == 1

    def test_directory_definitions_survive_reopen(self, db):
        session = db.login()
        emps = session.execute("| s | s := Bag new. World!emps := s. s")
        session.commit()
        db.create_directory(emps, "salary", name="bySalary")
        reopened = GemStone.open(db.disk)
        rebuilt = reopened.directory_manager.find_directory(emps.oid, "salary")
        assert rebuilt is not None
        assert rebuilt.name == "bySalary"

    def test_index_created_from_opal_hint(self, db):
        session = db.login()
        session.execute("| s | s := Bag new. World!emps := s")
        session.commit()
        directory = session.execute("System index: World!emps on: 'salary'")
        assert directory is db.directory_manager.find_directory(
            session.resolve("emps").oid, "salary"
        )


class TestAuthorizationEndToEnd:
    def test_users_and_segments_persist(self, db):
        dba = ("DataCurator", "swordfish")
        db.create_user(dba, "ellen", "pw")
        segment = db.create_segment(dba, "payroll")
        db.grant(dba, segment.segment_id, "ellen", Privilege.READ)
        reopened = GemStone.open(db.disk)
        ellen = reopened.authorizer.authenticate("ellen", "pw")
        reopened.authorizer.check_read(ellen, segment.segment_id)
        with pytest.raises(AuthorizationError):
            reopened.authorizer.check_write(ellen, segment.segment_id)

    def test_enforcement_through_login(self, db):
        dba = ("DataCurator", "swordfish")
        db.create_user(dba, "ellen", "pw")
        segment = db.create_segment(dba, "payroll")
        curator = db.login("DataCurator", "swordfish")
        secret = curator.new("Object", segment_id=segment.segment_id)
        curator.session.bind(secret.oid, "salary", 100)
        curator.commit()
        ellen = db.login("ellen", "pw")
        with pytest.raises(AuthorizationError):
            ellen.session.value_at(secret.oid, "salary")

    def test_non_dba_cannot_run_dba_ops(self, db):
        dba = ("DataCurator", "swordfish")
        db.create_user(dba, "ellen", "pw")
        with pytest.raises(AuthorizationError):
            db.create_user(("ellen", "pw"), "eve", "x")


class TestArchivalEndToEnd:
    def test_archive_and_restore_via_mount(self, db):
        session = db.login()
        old = session.new("Object", note="ancient")
        session.assign("ancient", old)
        session.commit()
        media = ArchiveMedia("tape-7")
        db.archive_object(old.oid, media)
        db.store.cache.flush()
        fresh = db.login()
        with pytest.raises(ArchiveError):
            fresh.resolve("ancient!note")
        db.store.archive_drive.mount(media)
        assert fresh.resolve("ancient!note") == "ancient"


class TestReplication:
    def test_database_on_replicated_disk_survives_corruption(self):
        db = GemStone.create(track_count=1024, track_size=1024, replicas=3)
        session = db.login()
        session.execute("World!v := 'precious'")
        session.commit()
        # corrupt many tracks on one replica; cold reads repair from peers
        replica = db.disk.replicas[0]
        for track in range(2, 40):
            if replica.is_written(track):
                replica.corrupt_track(track)
        reopened = GemStone.open(db.disk)
        assert reopened.login().execute("World!v") == "precious"
        assert db.disk.repairs > 0


class TestTemporaryObjects:
    def test_query_results_are_not_committed(self, db):
        session = db.login()
        session.execute("""
            | s | s := Bag new.
            1 to: 5 do: [:i | s add: i].
            World!numbers := s
        """)
        session.commit()
        objects_before = len(db.store.table)
        session.execute("(World!numbers select: [:x | x > 2]) size")
        session.commit()
        assert len(db.store.table) == objects_before

    def test_promoted_temporaries_do_commit(self, db):
        session = db.login()
        session.execute("""
            | s | s := Bag new.
            1 to: 5 do: [:i | s add: i].
            World!numbers := s.
            World!big := (s select: [:x | x > 3])
        """)
        session.commit()
        fresh = db.login()
        assert fresh.execute("World!big size") == 2
