"""E12 — SafeTime: stable reads under concurrent writers (section 5.4).

"A read-only transaction can set its time dial to SafeTime to get the
most recent state for which no currently running transaction can make
changes."

The harness runs a reader dialed to SafeTime while writers churn: every
value the reader sees must belong to one consistent committed state, and
repeated reads at the same SafeTime must be identical even as commits
land.

Run the harness:   python benchmarks/bench_safetime.py
Run the timings:   pytest benchmarks/bench_safetime.py --benchmark-only
"""

import pytest

from repro import GemStone

from harness import Table


def make_pair_db():
    """Two objects whose values are always updated together (an invariant
    a consistent reader must never see broken)."""
    db = GemStone.create(track_count=8192, track_size=2048)
    session = db.login()
    a = session.new("Object", v=0)
    b = session.new("Object", v=0)
    session.assign("a", a)
    session.assign("b", b)
    session.commit()
    session.close()
    return db, a.oid, b.oid


def write_pair(db, a_oid, b_oid, value):
    writer = db.login()
    writer.session.bind(a_oid, "v", value)
    writer.session.bind(b_oid, "v", value)
    writer.commit()
    writer.close()


def test_safetime_reader_sees_consistent_pairs():
    db, a_oid, b_oid = make_pair_db()
    reader = db.login()
    for value in range(1, 20):
        safe = reader.time_dial.set_safe()
        seen_a = reader.session.value_at(a_oid, "v")
        seen_b = reader.session.value_at(b_oid, "v")
        assert seen_a == seen_b  # the invariant holds at every SafeTime
        write_pair(db, a_oid, b_oid, value)
    reader.time_dial.reset()


def test_safetime_is_repeatable_while_writers_commit():
    db, a_oid, b_oid = make_pair_db()
    write_pair(db, a_oid, b_oid, 7)
    reader = db.login()
    safe = reader.time_dial.set_safe()
    first = reader.session.value_at(a_oid, "v")
    for value in (8, 9, 10):
        write_pair(db, a_oid, b_oid, value)
    # the dial is pinned: the same state, byte for byte
    assert reader.session.value_at(a_oid, "v") == first
    reader.time_dial.reset()
    assert reader.session.value_at(a_oid, "v") == 10


def test_uncommitted_writes_never_reach_safetime_readers():
    db, a_oid, b_oid = make_pair_db()
    writer = db.login()
    writer.session.bind(a_oid, "v", 999)  # never committed
    reader = db.login()
    reader.time_dial.set_safe()
    assert reader.session.value_at(a_oid, "v") == 0
    writer.abort()


def test_safetime_advances_with_commits():
    db, a_oid, b_oid = make_pair_db()
    reader = db.login()
    before = reader.safe_time()
    write_pair(db, a_oid, b_oid, 1)
    assert reader.safe_time() == before + 1


def test_bench_safetime_read(benchmark):
    db, a_oid, b_oid = make_pair_db()
    write_pair(db, a_oid, b_oid, 1)
    reader = db.login()
    reader.time_dial.set_safe()
    benchmark(reader.session.value_at, a_oid, "v")


def test_bench_dial_set_safe(benchmark):
    db, a_oid, b_oid = make_pair_db()
    reader = db.login()
    benchmark(reader.time_dial.set_safe)


def main() -> None:
    db, a_oid, b_oid = make_pair_db()
    reader = db.login()
    table = Table(
        "E12: SafeTime reader under writer churn (invariant: a == b)",
        ["round", "SafeTime", "reader sees a", "reader sees b", "consistent"],
    )
    for value in range(1, 8):
        safe = reader.time_dial.set_safe()
        seen_a = reader.session.value_at(a_oid, "v")
        seen_b = reader.session.value_at(b_oid, "v")
        table.add(value, safe, seen_a, seen_b, seen_a == seen_b)
        write_pair(db, a_oid, b_oid, value)
    table.note("every row consistent: no running transaction can change "
               "the dialed state")
    table.show()


if __name__ == "__main__":
    main()
