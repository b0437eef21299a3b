"""The commit lock: the Transaction Manager is the only writer of the
stable store, and nothing else writes beside it.

A disk wrapper parks a committing thread inside its group write (after
validation, with the store half written).  Every other durable group —
a DBA's ``system`` bindings, an archive, a compaction, a shard worker's
in-doubt note — must wait for that commit: it may not return while the
commit is parked, no two ``StableStore._persist`` frames may ever run
at once, and the platter must reopen cold as the live store has it.
"""

from __future__ import annotations

import threading

import pytest

from repro import GemStone
from repro.dr.verify import reopen_cold_diff
from repro.errors import StorageError
from repro.shard.worker import ShardWorker
from repro.storage import ArchiveMedia, DiskGeometry, SimulatedDisk, StableStore

DBA = ("DataCurator", "swordfish")


class ParkingDisk:
    """A disk whose first track write by the :attr:`armed` thread waits
    for :attr:`release`; :attr:`parked` says it got there."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.armed: threading.Thread | None = None
        self.parked = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def write_track(self, track: int, data: bytes) -> None:
        if threading.current_thread() is self.armed:
            self.armed = None
            self.parked.set()
            self.release.wait(10)
        self.inner.write_track(track, data)


def parking_disk() -> ParkingDisk:
    return ParkingDisk(SimulatedDisk(DiskGeometry(track_count=2048, track_size=512)))


def a_database():
    db = GemStone.create(disk=parking_disk())
    session = db.login()
    for i in range(80):  # the World record spans tracks: commits append
        session.execute(f"World!k{i:02d} := {i}")
    session.execute("World!old := Object new")
    session.commit()
    old = session.execute("World!old").oid
    session.execute("World!old := nil")  # historical-only from here on
    session.commit()
    return db, old


def worker_database():
    worker = ShardWorker(0, disk=parking_disk(), fresh=True)
    session = worker.db.login()
    for i in range(80):
        session.execute(f"World!k{i:02d} := {i}")
    session.commit()
    return worker


def dba_case(operation):
    def setup():
        db, old = a_database()
        return db, lambda: operation(db, old)

    return setup


def worker_note():
    worker = worker_database()
    return worker.db, lambda: worker._publish({"g1": ["World!k00 := 0"]})


CASES = {
    "create_user": dba_case(lambda db, _old: db.create_user(DBA, "ellen", "pw")),
    "archive_object": dba_case(lambda db, old: db.archive_object(old, ArchiveMedia())),
    "compact": dba_case(lambda db, _old: db.compact()),
    "worker_note": worker_note,
}


@pytest.fixture
def persists(monkeypatch):
    """The most ``StableStore._persist`` frames seen running at once."""
    guard = threading.Lock()
    state = {"running": 0, "peak": 0}
    real = StableStore._persist

    def counted(self, *args, **kwargs):
        with guard:
            state["running"] += 1
            state["peak"] = max(state["peak"], state["running"])
        try:
            return real(self, *args, **kwargs)
        finally:
            with guard:
                state["running"] -= 1

    monkeypatch.setattr(StableStore, "_persist", counted)
    return state


def in_thread(body):
    errors: list = []

    def run():
        try:
            body()
        except BaseException as error:  # reported by the test
            errors.append(error)

    thread = threading.Thread(target=run, daemon=True)
    return thread, errors


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_other_writer_waits_for_a_parked_commit(case, persists):
    db, second = CASES[case]()
    disk = db.disk
    session = db.login()
    session.execute("World!k01 := 'committed'")
    committer, commit_errors = in_thread(session.commit)
    other, other_errors = in_thread(second)
    disk.armed = committer
    committer.start()
    assert disk.parked.wait(5), "the commit never reached its group write"
    other.start()
    other.join(0.5)
    waited = other.is_alive()
    disk.release.set()
    committer.join(10)
    other.join(10)
    assert waited, f"{case} returned while a commit was parked mid-write"
    assert not commit_errors and not other_errors, (commit_errors, other_errors)
    assert persists["peak"] == 1
    assert reopen_cold_diff(db) == []
    assert GemStone.open(db.disk).login().execute("World!k01") == "committed"


def test_a_threaded_committer_and_dba_keep_the_platter_whole():
    db = GemStone.create(track_count=4096, track_size=512)
    errors: list = []

    def commits():
        session = db.login()
        for i in range(600):
            session.execute(f"World!k := {i}")
            session.commit()

    def users():
        for i in range(60):
            db.create_user(DBA, f"user{i}", "pw")

    threads = [in_thread(commits), in_thread(users)]
    for thread, _ in threads:
        thread.start()
    for thread, thread_errors in threads:
        thread.join(60)
        errors += thread_errors
    assert errors == []
    assert reopen_cold_diff(db) == []
    reopened = GemStone.open(db.disk)
    assert reopened.login().execute("World!k") == 599
    assert reopened.authorizer.authenticate("user59", "pw").name == "user59"


def test_a_commit_that_fails_in_storage_leaves_a_fresh_transaction():
    db = GemStone.create(track_count=1024, track_size=512)
    session = db.login()
    session.execute("World!a := World!b")
    session.execute("World!made := Object new")
    inner = session.session
    assert inner.write_log and inner.creations and inner.reads
    before = inner.start_time
    db.disk.crash_after(0)
    with pytest.raises(StorageError):
        session.commit()
    assert inner.write_log == [] and inner.creations == []
    assert not inner.reads and not inner.enum_reads and not inner.workspace
    assert inner.start_time > before
    assert inner.start_time == db.transaction_manager.clock.latest
    assert db.transaction_manager.stats.storage_failures == 1
