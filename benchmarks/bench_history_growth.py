"""E11 — no-GC history: storage grows, access stays fast (sections 2E, 6).

"Database objects in the past never go away ... Thus, no garbage
collection need be done on database objects."  The trade the paper makes
explicit: storage grows with every update (mass storage is cheap and
getting cheaper), while any past state stays directly accessible.

The harness updates one element U times and reports: encoded record
size (linear growth), current-value read cost (flat), and @T lookup cost
across the whole history (logarithmic — binary search in the
association table).

Run the harness:   python benchmarks/bench_history_growth.py
Run the timings:   pytest benchmarks/bench_history_growth.py --benchmark-only
"""

import pytest

from repro import GemStone
from repro.core import AssociationTable, MemoryObjectManager
from repro.storage import encode_object

from harness import Table, stopwatch
from workloads import history_churn


def churned_object(updates: int):
    om = MemoryObjectManager()
    obj = om.instantiate("Object", value=0)
    for index in range(updates):
        om.tick()
        om.bind(obj, "value", index + 1)
    return om, obj


def test_record_size_grows_linearly():
    _om1, small = churned_object(10)
    _om2, large = churned_object(1000)
    ratio = len(encode_object(large)) / len(encode_object(small))
    assert 50 < ratio < 150  # ~linear in history length


def test_every_past_state_remains_readable():
    om, obj = churned_object(500)
    for probe in (2, 100, 499):
        assert om.value_at(obj, "value", probe + 1) == probe


def test_current_read_cost_independent_of_history():
    _om1, small = churned_object(10)
    _om2, large = churned_object(100_000)
    t_small = stopwatch(lambda: small.value_at("value"), 5)
    t_large = stopwatch(lambda: large.value_at("value"), 5)
    assert t_large.seconds < t_small.seconds * 50 + 1e-4


def test_no_object_is_ever_collected():
    db = GemStone.create(track_count=8192, track_size=2048)
    history_churn(db, updates=30)
    oids_before = set(db.store.table.oids())
    session = db.login()
    session.execute("World!churned at: 'value' put: -1")
    session.commit()
    assert oids_before <= set(db.store.table.oids())


def test_bench_current_read_long_history(benchmark):
    _om, obj = churned_object(10_000)
    benchmark(obj.value_at, "value")


def test_bench_past_read_long_history(benchmark):
    _om, obj = churned_object(10_000)
    benchmark(obj.value_at, "value", 5_000)


def test_bench_append_to_long_history(benchmark):
    table = AssociationTable()
    for index in range(10_000):
        table.record(index, index)
    clock = [10_000]

    def append():
        clock[0] += 1
        table.record(clock[0], clock[0])

    benchmark(append)


def main() -> None:
    growth = Table(
        "E11: one element updated U times (no deletion, ever)",
        ["updates", "record bytes", "read now (µs)", "read @T=U/2 (µs)"],
    )
    for updates in (10, 100, 1_000, 10_000):
        om, obj = churned_object(updates)
        size = len(encode_object(obj))
        now = stopwatch(lambda: om.value_at(obj, "value"), 5)
        past = stopwatch(lambda: om.value_at(obj, "value", updates // 2), 5)
        growth.add(updates, size, now.micros, past.micros)
    growth.note("storage linear in history; reads flat/logarithmic — the "
                "paper's trade of cheap storage for universal history")
    growth.show()

    durable = Table("E11: durable history through the full pipeline",
                    ["commits", "tracks used", "all states readable"])
    for updates in (10, 50):
        db = GemStone.create(track_count=16_384, track_size=2048)
        obj = history_churn(db, updates)
        stable = db.store.object(obj.oid)
        readable = all(
            stable.value_at("value", t) is not None
            for t in stable.elements["value"].times()
        )
        durable.add(updates, len(db.store.tracks.allocated_tracks()), readable)
    durable.show()


if __name__ == "__main__":
    main()
