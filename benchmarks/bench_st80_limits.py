"""E6 — ST80's limits removed (section 4.3).

"Only 32K objects are allowed in most implementations, and the maximum
size for an object is 64K bytes."  GemStone's design goal B: "only the
size of secondary storage should impose size limits on data items."

The harness creates more than 32K objects and a single object far beyond
64KB, commits both, and reads them back from disk — the Boxer fragments
the large record across tracks.

Run the harness:   python benchmarks/bench_st80_limits.py
Run the timings:   pytest benchmarks/bench_st80_limits.py --benchmark-only
"""

import pytest

from repro import GemStone
from repro.core import MemoryObjectManager

from harness import Table, stopwatch

ST80_OBJECT_LIMIT = 32 * 1024
ST80_SIZE_LIMIT = 64 * 1024


def test_more_than_32k_objects_in_memory():
    om = MemoryObjectManager()
    base = om.object_count()
    for _ in range(ST80_OBJECT_LIMIT + 100):
        om.instantiate("Object")
    assert om.object_count() - base > ST80_OBJECT_LIMIT


def test_object_larger_than_64kb_survives_commit():
    db = GemStone.create(track_count=8192, track_size=4096)
    session = db.login()
    document = "paragraph " * (ST80_SIZE_LIMIT // 8)  # ~80KB of text
    assert len(document) > ST80_SIZE_LIMIT
    obj = session.new("Object", text=document)
    session.assign("document", obj)
    session.commit()
    # cold read through the Boxer's fragment chain
    db.store.cache.flush()
    assert session.resolve("document!text") == document
    # it genuinely spans tracks
    location = db.store.table.get(obj.oid)
    assert len(location.tracks) > 1


def test_many_objects_through_full_pipeline():
    db = GemStone.create(track_count=8192, track_size=4096)
    session = db.login()
    group = session.new("Bag")
    for index in range(2_000):
        member = session.new("Object", i=index)
        session.session.bind(group, session.session.new_alias(), member)
    session.assign("crowd", group)
    session.commit()
    assert session.execute("World!crowd size") == 2_000


def test_bench_creating_objects(benchmark):
    def create_batch():
        om = MemoryObjectManager()
        for _ in range(5_000):
            om.instantiate("Object")
        return om.object_count()

    assert benchmark(create_batch) >= 5_000


def test_bench_large_object_commit(benchmark):
    # bounded rounds: objects are never garbage-collected (section 6),
    # so every round's 128KB document stays on disk forever
    db = GemStone.create(track_count=65_536, track_size=4096)
    session = db.login()
    document = "x" * (128 * 1024)

    def write_large():
        obj = session.new("Object", text=document)
        session.assign("doc", obj)
        return session.commit()

    benchmark.pedantic(write_large, rounds=15, iterations=1)


def main() -> None:
    table = Table("E6: ST80 limits vs this system",
                  ["limit", "ST80", "measured here"])

    om = MemoryObjectManager()
    timing = stopwatch(lambda: [om.instantiate("Object")
                                for _ in range(ST80_OBJECT_LIMIT + 1000)])
    table.add("objects in one image", f"{ST80_OBJECT_LIMIT:,}",
              f"{om.object_count():,} (in {timing.millis:.0f} ms, unbounded)")

    db = GemStone.create(track_count=8192, track_size=4096)
    session = db.login()
    document = "paragraph " * 32_768  # ~320KB
    obj = session.new("Object", text=document)
    session.assign("document", obj)
    session.commit()
    tracks = len(db.store.table.get(obj.oid).tracks)
    table.add("max object size", f"{ST80_SIZE_LIMIT:,} bytes",
              f"{len(document):,} bytes ({tracks} tracks; disk-limited)")

    db.store.cache.flush()
    cold = stopwatch(lambda: session.resolve("document!text"))
    table.add("cold read of that object", "n/a", f"{cold.millis:.1f} ms")
    table.show()


if __name__ == "__main__":
    main()
