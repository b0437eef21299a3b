"""E10 — track clustering: physical paths parallel logical paths.

Section 6: "Between objects, pointers to elements are usually physical
pointers, as we expect most of the data to be strict tree structures.
Thus, physical access paths parallel logical access where objects aren't
shared."

The Linker orders dirty objects parent-first and the Boxer packs them
first-fit, so a tree committed together lands on few adjacent tracks.
The harness traverses the same tree cold (cache flushed) when it was
committed as one group vs one-node-per-commit in shuffled order, and
compares track reads and simulated seek time.

Run the harness:   python benchmarks/bench_clustering.py
Run the timings:   pytest benchmarks/bench_clustering.py --benchmark-only
"""

import pytest

from repro import GemStone

from harness import Table, ratio
from workloads import scattered_tree_database, traverse_tree, tree_database

DEPTH, FANOUT = 4, 4  # 341 nodes


def cold_traversal_cost(db, root, fanout):
    db.store.flush_caches()
    db.disk.stats.reset()
    count = traverse_tree(db.store, root, fanout)
    return count, db.disk.stats.reads, db.disk.stats.time_units


@pytest.fixture(scope="module")
def clustered():
    db = GemStone.create(track_count=16_384, track_size=2048)
    root = tree_database(db, DEPTH, FANOUT)
    return db, root


@pytest.fixture(scope="module")
def scattered():
    db = GemStone.create(track_count=16_384, track_size=2048)
    root = scattered_tree_database(db, DEPTH, FANOUT)
    return db, root


def test_same_tree_both_ways(clustered, scattered):
    db_a, root_a = clustered
    db_b, root_b = scattered
    count_a, _, _ = cold_traversal_cost(db_a, root_a, FANOUT)
    count_b, _, _ = cold_traversal_cost(db_b, root_b, FANOUT)
    assert count_a == count_b == sum(FANOUT**i for i in range(DEPTH + 1))


def test_clustered_tree_needs_fewer_track_reads(clustered, scattered):
    db_a, root_a = clustered
    db_b, root_b = scattered
    _, reads_clustered, time_clustered = cold_traversal_cost(db_a, root_a, FANOUT)
    _, reads_scattered, time_scattered = cold_traversal_cost(db_b, root_b, FANOUT)
    assert reads_clustered < reads_scattered
    assert time_clustered < time_scattered


def test_clustered_objects_share_tracks(clustered):
    db, _root = clustered
    # nodes per track: with ~2KB tracks and ~70-byte nodes, many share
    tracks = {}
    for oid in db.store.table.oids():
        location = db.store.table.get(oid)
        for track in location.tracks:
            tracks.setdefault(track, 0)
            tracks[track] += 1
    best = max(tracks.values())
    assert best >= 5


def test_bench_cold_traversal_clustered(clustered, benchmark):
    db, root = clustered

    def run():
        db.store.flush_caches()
        return traverse_tree(db.store, root, FANOUT)

    benchmark(run)


def test_bench_cold_traversal_scattered(scattered, benchmark):
    db, root = scattered

    def run():
        db.store.flush_caches()
        return traverse_tree(db.store, root, FANOUT)

    benchmark(run)


def test_bench_warm_traversal(clustered, benchmark):
    db, root = clustered
    traverse_tree(db.store, root, FANOUT)  # warm the cache
    benchmark(traverse_tree, db.store, root, FANOUT)


def main() -> None:
    table = Table(
        "E10: cold tree traversal (341 nodes), clustered vs scattered",
        ["layout", "track reads", "seek+transfer time units"],
    )
    db_a = GemStone.create(track_count=16_384, track_size=2048)
    root_a = tree_database(db_a, DEPTH, FANOUT)
    _, reads_a, time_a = cold_traversal_cost(db_a, root_a, FANOUT)
    table.add("clustered (one commit, parent-first boxing)", reads_a, time_a)

    db_b = GemStone.create(track_count=16_384, track_size=2048)
    root_b = scattered_tree_database(db_b, DEPTH, FANOUT)
    _, reads_b, time_b = cold_traversal_cost(db_b, root_b, FANOUT)
    table.add("scattered (one node per commit, shuffled)", reads_b, time_b)
    table.note(f"clustering wins {ratio(reads_b, reads_a)} on reads, "
               f"{ratio(time_b, time_a)} on simulated time")
    table.show()


if __name__ == "__main__":
    main()
