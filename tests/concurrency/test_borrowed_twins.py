"""Borrowed-table twins: a session's first write copies a dict, not 2 000 tables.

``copy_shell`` gives the twin the stable object's element *dict*; the
tables stay shared until someone writes one — the twin in its own
``bind``, the Linker before it appends to a table of a stored object (a
twin may be reading it; nobody keeps count of them).
"""

import pytest

from repro.concurrency import SessionObjectManager, TransactionManager
from repro.core.history import AssociationTable
from repro.errors import StorageError, TransactionConflict
from repro.storage import DiskGeometry, SimulatedDisk, StableStore

ELEMENTS = 300


@pytest.fixture
def store():
    return StableStore.format(
        SimulatedDisk(DiskGeometry(track_count=4096, track_size=512))
    )


@pytest.fixture
def tm(store):
    return TransactionManager(store)


@pytest.fixture
def world(store, tm):
    loader = SessionObjectManager(store, tm)
    obj = loader.instantiate("Object", **{f"k{i:03d}": i for i in range(ELEMENTS)})
    loader.commit()
    loader.close()
    return obj.oid


def session(store, tm):
    return SessionObjectManager(store, tm)


class TestTheTwinBorrows:
    def test_first_write_copies_one_table(self, store, tm, world, monkeypatch):
        copies = []
        real = AssociationTable.copy
        monkeypatch.setattr(
            AssociationTable, "copy", lambda self: copies.append(1) or real(self)
        )
        s = session(store, tm)
        s.bind(world, "k001", "mine")
        assert len(copies) == 1
        twin, stable = s.workspace[world], store.object(world)
        assert twin.elements["k002"] is stable.elements["k002"]  # borrowed
        assert twin.elements["k001"] is not stable.elements["k001"]
        s.bind(world, "k001", "mine again")  # its own table by now
        assert len(copies) == 1

    def test_uncommitted_writes_stay_private(self, store, tm, world):
        s = session(store, tm)
        s.bind(world, "k001", "mine")
        s.bind(world, "fresh", "also mine")
        assert store.object(world).value("k001") == 1
        assert not store.object(world).has_element("fresh")
        assert session(store, tm).value_at(world, "k001") == 1


class TestTheTwinKeepsItsSnapshot:
    def test_a_commits_land_beside_the_borrowed_tables(self, store, tm, world):
        a, b = session(store, tm), session(store, tm)
        a.bind(world, "k001", "a's")  # A twins World here
        b.bind(world, "k002", "b's")  # another element …
        b.bind(world, "k001", "b's")  # … and the same one
        b.bind(world, "new_name", "b's")
        b.commit()
        # A still reads exactly the state at its first write, plus its own
        assert a.value_at(world, "k001") == "a's"
        assert a.value_at(world, "k002") == 2
        assert not a.object(world).has_element("new_name")
        # while everyone else sees B's commit
        assert session(store, tm).value_at(world, "k002") == "b's"
        # and A, having read what B then wrote, conflicts at commit
        with pytest.raises(TransactionConflict):
            a.commit()
        assert a.value_at(world, "k001") == "b's"

    def test_a_blind_writer_commits_over_the_newer_state(self, store, tm, world):
        a, b = session(store, tm), session(store, tm)
        a.bind(world, "k001", "a's")
        b.bind(world, "k002", "b's")
        b.commit()
        a.commit()  # disjoint write sets, no reads: both stand
        final = store.object(world)
        assert (final.value("k001"), final.value("k002")) == ("a's", "b's")
        cold = StableStore.open(store.disk).object(world)
        assert (cold.value("k001"), cold.value("k002")) == ("a's", "b's")

    def test_a_prepared_commit_also_spares_the_borrowed_tables(
        self, store, tm, world
    ):
        a, b = session(store, tm), session(store, tm)
        b.bind(world, "k002", "b's")
        tm.prepare(b, "g1")
        a.bind(world, "k001", "a's")  # A twins while g1 is in doubt
        tm.commit_prepared("g1")
        assert a.value_at(world, "k002") == 2
        assert session(store, tm).value_at(world, "k002") == "b's"


class TestTheCommitCopiesWhatItWrites:
    """Nobody counts twins: the Linker appends to a copy of every table
    it writes on a stored object, whether or not one is being read."""

    def test_one_table_copy_per_replayed_write(self, store, tm, world, monkeypatch):
        s = session(store, tm)
        s.bind(world, "k001", "x")  # the twin's own copy
        s.bind(world, "k002", "y")
        copies = []
        real = AssociationTable.copy
        monkeypatch.setattr(
            AssociationTable, "copy", lambda self: copies.append(1) or real(self)
        )
        s.commit()
        assert len(copies) == 2

    def test_a_twin_outlives_any_number_of_commits(self, store, tm, world):
        a = session(store, tm)
        a.bind(world, "k000", "a's")
        for n in range(5):
            b = session(store, tm)
            b.bind(world, "k002", n)
            b.commit()
            b.close()
            assert a.value_at(world, "k002") == 2
        assert session(store, tm).value_at(world, "k002") == 4

    def test_a_failed_commit_leaves_other_twins_their_snapshot(
        self, store, tm, world
    ):
        a, b = session(store, tm), session(store, tm)
        a.bind(world, "k001", "a's")
        b.bind(world, "k002", "b's")
        store.disk.crash_after(0)
        with pytest.raises(StorageError):
            b.commit()
        assert a.value_at(world, "k002") == 2
