"""E8 — safe writes: atomic track groups (section 6).

"Safe writing guarantees that all the tracks in the group get written,
or none get written, and that the tracks in the group replace their old
versions atomically."

The harness crashes the disk at *every* write index inside a commit and
verifies recovery always yields exactly the old state or exactly the new
state — never a mixture — then reports commit cost (track writes) as the
group grows.

Run the harness:   python benchmarks/bench_safe_writes.py
Run the timings:   pytest benchmarks/bench_safe_writes.py --benchmark-only
"""

import pytest

from repro import GemStone
from repro.errors import DiskCrashed
from repro.storage import DiskGeometry, SimulatedDisk, StableStore

from harness import Table


def fresh_db():
    return GemStone.create(track_count=4096, track_size=1024)


def crash_sweep(objects: int = 4, max_crash_points: int = 64):
    """Crash at each write index; classify every recovery. Returns
    (old_state_count, new_state_count, mixed_count)."""
    old = new = mixed = 0
    crash_point = 0
    while crash_point < max_crash_points:
        db = fresh_db()
        session = db.login()
        oids = []
        for index in range(objects):
            obj = session.new("Object", v="old")
            session.assign(f"o{index}", obj)
            oids.append(obj.oid)
        session.commit()

        db.disk.crash_after(crash_point)
        committed = True
        try:
            for oid in oids:
                session.session.bind(oid, "v", "new")
            session.commit()
        except DiskCrashed:
            committed = False
        db.disk.cancel_crash()
        db.disk.restart()

        recovered = GemStone.open(db.disk)
        values = {
            recovered.store.object(oid).value("v") for oid in oids
        }
        if values == {"old"}:
            old += 1
            assert not committed
        elif values == {"new"}:
            new += 1
        else:
            mixed += 1
        if committed:
            break  # past the last write of the commit: done sweeping
        crash_point += 1
    return old, new, mixed


def test_every_crash_point_is_all_or_nothing():
    old, new, mixed = crash_sweep()
    assert mixed == 0
    assert old > 0   # early crashes keep the old state
    assert new >= 1  # surviving the full group yields the new state


def test_recovery_adopts_highest_valid_epoch():
    db = fresh_db()
    session = db.login()
    session.execute("World!v := 'one'")
    session.commit()
    session.execute("World!v := 'two'")
    session.commit()
    recovered = GemStone.open(db.disk)
    assert recovered.login().execute("World!v") == "two"


def test_commit_never_overwrites_live_tracks():
    """Shadow discipline: the tracks of the pre-commit state are not
    rewritten by the next commit (root slots aside)."""
    db = fresh_db()
    session = db.login()
    obj = session.new("Object", v=1)
    session.assign("o", obj)
    session.commit()
    live_tracks = set(db.store.table.tracks_in_use())
    writes_before = db.disk.stats.writes

    written = []
    original = db.disk.write_track

    def spy(track, data):
        written.append(track)
        return original(track, data)

    db.disk.write_track = spy
    session.session.bind(obj.oid, "v", 2)
    session.commit()
    overlap = set(written) & live_tracks
    assert not overlap
    assert db.disk.stats.writes > writes_before


def test_bench_small_commit(benchmark):
    db = fresh_db()
    session = db.login()
    obj = session.new("Object", v=0)
    session.assign("o", obj)
    session.commit()

    def commit_one():
        session.session.bind(obj.oid, "v", 1)
        return session.commit()

    benchmark(commit_one)


def test_bench_group_commit_100_objects(benchmark):
    db = GemStone.create(track_count=16_384, track_size=2048)
    session = db.login()
    group = session.new("Bag")
    oids = []
    for index in range(100):
        member = session.new("Object", v=0)
        session.session.bind(group, session.session.new_alias(), member)
        oids.append(member.oid)
    session.assign("group", group)
    session.commit()

    def commit_group():
        for oid in oids:
            session.session.bind(oid, "v", 1)
        return session.commit()

    benchmark(commit_group)


def main() -> None:
    old, new, mixed = crash_sweep()
    sweep = Table("E8: crash at every write index during one commit",
                  ["recovered old state", "recovered new state", "mixed"])
    sweep.add(old, new, mixed)
    sweep.note("mixed must be 0: the group replaces its old versions atomically")
    sweep.show()

    cost = Table("E8: commit cost vs group size",
                 ["dirty objects", "track writes", "time units"])
    for objects in (1, 10, 100, 500):
        db = GemStone.create(track_count=32_768, track_size=2048)
        session = db.login()
        oids = []
        group = session.new("Bag")
        for index in range(objects):
            member = session.new("Object", v=0)
            session.session.bind(group, session.session.new_alias(), member)
            oids.append(member.oid)
        session.assign("group", group)
        session.commit()
        before_writes = db.disk.stats.writes
        before_time = db.disk.stats.time_units
        for oid in oids:
            session.session.bind(oid, "v", 1)
        session.commit()
        cost.add(objects, db.disk.stats.writes - before_writes,
                 db.disk.stats.time_units - before_time)
    cost.note("cost grows with the group, plus the contents record "
              "(the table pages it moved) and the root")
    cost.show()


if __name__ == "__main__":
    main()
