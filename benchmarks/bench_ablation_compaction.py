"""Ablation — compaction: what shadow-paging churn costs, and its cure.

The safe-write design (E8) never overwrites live tracks, so updated
objects leave superseded copies co-located with still-live residents:
occupancy grows and clustering decays.  This ablation fragments a tree
with random single-node updates, measures the decay, compacts, and
measures the recovery — quantifying a design consequence the paper's
Commit Manager implies but does not discuss.

Run the harness:   python benchmarks/bench_ablation_compaction.py
Run the timings:   pytest benchmarks/bench_ablation_compaction.py --benchmark-only
"""

import random

import pytest

from repro import GemStone

from harness import Table, ratio
from workloads import traverse_tree, tree_database

DEPTH, FANOUT = 4, 4


def fragmented_db(churn_commits: int = 150, seed: int = 5):
    db = GemStone.create(track_count=32_768, track_size=2048)
    root = tree_database(db, DEPTH, FANOUT)
    rng = random.Random(seed)
    session = db.login()
    all_oids = [oid for oid in db.store.table.oids()]
    for index in range(churn_commits):
        victim = rng.choice(all_oids)
        obj = db.store.object(victim)
        if obj.has_element("payload"):
            session.session.bind(victim, "payload", f"v{index}" * 10)
            session.commit()
    session.close()
    return db, root


def cold_cost(db, root):
    db.store.flush_caches()
    db.disk.stats.reset()
    traverse_tree(db.store, root, FANOUT)
    return db.disk.stats.reads, db.disk.stats.time_units


def test_churn_fragments_then_compaction_recovers():
    db, root = fragmented_db()
    reads_fragmented, _ = cold_cost(db, root)
    tracks_before = len(db.store.tracks.allocated_tracks())
    reclaimed = db.compact()
    tracks_after = len(db.store.tracks.allocated_tracks())
    reads_compacted, _ = cold_cost(db, root)
    assert reclaimed > 0
    assert tracks_after < tracks_before
    assert reads_compacted < reads_fragmented


def test_compaction_preserves_all_data_and_history():
    db, root = fragmented_db(churn_commits=40)
    stable_root = db.store.object(root.oid)
    history_before = {
        oid: list(db.store.object(oid).elements["payload"].history())
        for oid in db.store.table.oids()
        if db.store.object(oid).has_element("payload")
    }
    db.compact()
    reopened = GemStone.open(db.disk)
    for oid, history in history_before.items():
        assert list(
            reopened.store.object(oid).elements["payload"].history()
        ) == history


def test_compaction_keeps_unreachable_objects():
    """No GC: compaction rewrites unreferenced objects, never drops them."""
    db = GemStone.create(track_count=8192, track_size=2048)
    session = db.login()
    orphan = session.new("Object", keepsake=1)  # never attached to World
    session.commit()
    db.compact()
    assert db.store.object(orphan.oid).value("keepsake") == 1


def test_bench_compaction(benchmark):
    def run():
        db, _root = fragmented_db(churn_commits=60)
        return db.compact()

    benchmark.pedantic(run, rounds=3, iterations=1)


def main() -> None:
    db, root = fragmented_db()
    reads_before, time_before = cold_cost(db, root)
    tracks_before = len(db.store.tracks.allocated_tracks())
    reclaimed = db.compact()
    reads_after, time_after = cold_cost(db, root)
    tracks_after = len(db.store.tracks.allocated_tracks())

    table = Table(
        "Ablation: 150 churn commits on a 341-node tree, then compaction",
        ["state", "tracks allocated", "cold traversal reads", "time units"],
    )
    table.add("fragmented", tracks_before, reads_before, time_before)
    table.add("compacted", tracks_after, reads_after, time_after)
    table.note(f"compaction reclaimed {reclaimed} tracks and cut cold reads "
               f"{ratio(reads_before, reads_after)}")
    table.show()


if __name__ == "__main__":
    main()
