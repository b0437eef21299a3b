"""Ablation — caches: the object cache and the track buffer.

The paper's Object Manager keeps hot objects in memory; this ablation
sweeps the object-cache capacity against a skewed access pattern and
toggles the track buffer off, quantifying how much of the system's read
performance each layer provides.

Run the harness:   python benchmarks/bench_ablation_cache.py
Run the timings:   pytest benchmarks/bench_ablation_cache.py --benchmark-only
"""

import random

import pytest

from repro import GemStone

from harness import Table
from workloads import employee_database


OBJECTS = 400
ACCESSES = 2_000


def build(cache_capacity):
    db = GemStone.create(
        track_count=16_384, track_size=2048, cache_capacity=cache_capacity
    )
    emps = employee_database(db, OBJECTS)
    oids = [
        value.oid
        for _, value in db.store.object(emps.oid).items_at(None)
    ]
    return db, oids


def skewed_workload(db, oids, seed=13):
    """Zipf-ish: most accesses hit a small hot set.

    The track buffer is disabled so the object cache's effect reaches
    the disk counters (otherwise 16 buffered tracks absorb this whole
    dataset — which the second table shows on purpose).
    """
    rng = random.Random(seed)
    hot = oids[: max(4, len(oids) // 20)]
    db.store.track_buffer_capacity = 0
    db.store.flush_caches()
    db.store.cache.reset_stats()
    db.disk.stats.reset()
    for _ in range(ACCESSES):
        oid = rng.choice(hot) if rng.random() < 0.9 else rng.choice(oids)
        db.store.object(oid).value_at("salary")
    return db.store.cache.hit_rate, db.disk.stats.reads


def test_bigger_cache_fewer_disk_reads():
    results = {}
    for capacity in (8, 64, None):
        db, oids = build(capacity)
        hit_rate, reads = skewed_workload(db, oids)
        results[capacity] = (hit_rate, reads)
    assert results[8][1] > results[64][1] >= results[None][1]
    assert results[None][0] > results[8][0]


def test_track_buffer_saves_reads_for_clustered_objects():
    db, oids = build(None)
    db.store.flush_caches()
    db.disk.stats.reset()
    for oid in oids:
        db.store.object(oid).value_at("salary")
    with_buffer = db.disk.stats.reads

    db.store.flush_caches()
    db.store.cache.flush()
    db.store.track_buffer_capacity = 0
    db.disk.stats.reset()
    for oid in oids:
        db.store.object(oid).value_at("salary")
    without_buffer = db.disk.stats.reads
    assert with_buffer < without_buffer


def test_bench_skewed_reads_small_cache(benchmark):
    db, oids = build(8)

    def run():
        return skewed_workload(db, oids)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_bench_skewed_reads_unbounded_cache(benchmark):
    db, oids = build(None)

    def run():
        return skewed_workload(db, oids)

    benchmark.pedantic(run, rounds=3, iterations=1)


def main() -> None:
    table = Table(
        f"Ablation: object cache under a 90/10 skew "
        f"({OBJECTS} objects, {ACCESSES} reads)",
        ["cache capacity", "hit rate", "track reads"],
    )
    for capacity in (4, 8, 64, 256, None):
        db, oids = build(capacity)
        hit_rate, reads = skewed_workload(db, oids)
        table.add("unbounded" if capacity is None else capacity,
                  f"{hit_rate:.2f}", reads)
    table.show()

    buffer_table = Table("Ablation: track buffer on a full sequential scan",
                         ["track buffer", "track reads"])
    db, oids = build(None)
    db.store.flush_caches()
    db.disk.stats.reset()
    for oid in oids:
        db.store.object(oid).value_at("salary")
    buffer_table.add("16 tracks (default)", db.disk.stats.reads)
    db.store.flush_caches()
    db.store.cache.flush()
    db.store.track_buffer_capacity = 0
    db.disk.stats.reset()
    for oid in oids:
        db.store.object(oid).value_at("salary")
    buffer_table.add("disabled", db.disk.stats.reads)
    buffer_table.note("clustered residents of one track cost one read, "
                      "not one each")
    buffer_table.show()


if __name__ == "__main__":
    main()
