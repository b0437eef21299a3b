"""Unit tests for the compaction pass (storage-level)."""

import pytest

from repro import GemStone
from repro.core import Ref
from repro.storage import ArchiveMedia


@pytest.fixture
def db():
    return GemStone.create(track_count=8192, track_size=1024)


def churn(db, oid, rounds):
    session = db.login()
    for index in range(rounds):
        session.session.bind(oid, "v", f"value-{index}" * 5)
        session.commit()
    session.close()


class TestCompaction:
    def test_reclaims_tracks_after_churn(self, db):
        session = db.login()
        group = session.new("Bag")
        members = []
        for index in range(30):
            member = session.new("Object", v="x")
            session.session.bind(group, session.session.new_alias(), member)
            members.append(member.oid)
        session.assign("group", group)
        session.commit()
        for oid in members[:10]:
            churn(db, oid, 5)
        before = len(db.store.tracks.allocated_tracks())
        reclaimed = db.compact()
        assert reclaimed > 0
        assert len(db.store.tracks.allocated_tracks()) == before - reclaimed

    def test_data_identical_after_compaction(self, db):
        session = db.login()
        obj = session.new("Object", a=1, b="two", c=None)
        session.assign("o", obj)
        session.commit()
        churn(db, obj.oid, 3)
        snapshot = {
            name: list(table.history())
            for name, table in db.store.object(obj.oid).elements.items()
        }
        db.compact()
        reopened = GemStone.open(db.disk)
        loaded = reopened.store.object(obj.oid)
        assert {
            name: list(table.history())
            for name, table in loaded.elements.items()
        } == snapshot

    def test_compaction_is_itself_crash_safe(self, db):
        session = db.login()
        obj = session.new("Object", v="before")
        session.assign("o", obj)
        session.commit()
        churn(db, obj.oid, 4)
        expected = db.store.object(obj.oid).value("v")
        db.disk.crash_after(1)  # after the first track of its group
        with pytest.raises(Exception):
            db.compact()
        db.disk.restart()
        recovered = GemStone.open(db.disk)
        assert recovered.store.object(obj.oid).value("v") == expected

    def test_archived_objects_left_alone(self, db):
        session = db.login()
        obj = session.new("Object", v="archived away")
        session.assign("o", obj)
        session.commit()
        media = ArchiveMedia()
        db.archive_object(obj.oid, media)
        db.compact()
        location = db.store.table.get(obj.oid)
        assert location.archived
        db.store.archive_drive.mount(media)
        db.store.flush_caches()
        assert db.store.object(obj.oid).value("v") == "archived away"

    def test_reachable_objects_recluster(self, db):
        session = db.login()
        parent = session.new("Object")
        children = [session.new("Object", payload="p" * 30) for _ in range(6)]
        for index, child in enumerate(children):
            session.session.bind(parent.oid, f"c{index}", Ref(child.oid))
        session.assign("parent", parent)
        session.commit()
        # scatter the children with individual churn
        for child in children:
            churn(db, child.oid, 3)
        db.compact()
        tracks = [db.store.table.get(c.oid).tracks[0] for c in children]
        assert max(tracks) - min(tracks) <= 2  # adjacent again

    def test_world_and_classes_survive(self, db):
        session = db.login()
        session.execute("""
            Object subclass: #Kept instVarNames: #(x).
            Kept compile: 'x ^x'.
            | k | k := Kept new. k at: 'x' put: 5. World!k := k
        """)
        session.commit()
        db.compact()
        reopened = GemStone.open(db.disk)
        assert reopened.login().execute("World!k x") == 5
