"""E9 — directories: associative access, including into past states.

Section 6: "The Directory Manager creates and maintains directories.
Directories use standard techniques modified to handle object
histories."  Sections 4.3/6 claim the declarative language gives the
latitude to exploit them.

The harness compares scan vs directory plans as the set grows, checks
that a two-sided range reads exactly the entries inside its bracket
(one ``[lo, hi)`` probe, not a probe of ``lo`` filtered down), and runs
the same indexed query against a past state after the members were
re-keyed — exercising the interval-stamped entries.

Run the harness:   python benchmarks/bench_directories.py
Run the timings:   pytest benchmarks/bench_directories.py --benchmark-only
"""

import pytest

from repro import GemStone

from harness import Table, ratio, stopwatch
from workloads import employee_database


def build(count: int, indexed: bool):
    db = GemStone.create(track_count=16_384, track_size=4096)
    emps = employee_database(db, count)
    directory = db.create_directory(emps, "salary") if indexed else None
    session = db.login()
    return db, session, directory


QUERY = "(World!employees select: [:e | e!salary > 90000]) size"
RANGE_QUERY = (
    "(World!employees select: "
    "[:e | (e!salary >= {low}) & (e!salary < {high})]) size"
)
#: the [low, high) brackets the range shape is asserted at
RANGES = ((40_000, 45_000), (10_000, 100_000), (50_000, 50_000))


def range_shape(db, session, low: int, high: int) -> tuple[int, int]:
    """(results, members the plan examined) for one two-sided range —
    the candidate count the slow-query log records for every select."""
    db.obs.slow_queries.clear()
    results = session.execute(RANGE_QUERY.format(low=low, high=high))
    entry, = db.obs.slow_queries.slowest()
    return results, entry["candidates"]


@pytest.fixture(scope="module")
def indexed_db():
    return build(1_000, indexed=True)


@pytest.fixture(scope="module")
def scan_db():
    return build(1_000, indexed=False)


def test_same_answer_with_and_without_directory(indexed_db, scan_db):
    _db, indexed_session, directory = indexed_db
    _db2, scan_session, _ = scan_db
    a = indexed_session.execute(QUERY)
    b = scan_session.execute(QUERY)
    assert a == b > 0
    assert directory.lookups >= 1


def test_two_sided_range_examines_only_its_results(indexed_db, scan_db):
    db, session, _directory = indexed_db
    scan, scan_session, _ = scan_db
    counts = []
    for low, high in RANGES:
        results, examined = range_shape(db, session, low, high)
        assert examined == results
        assert range_shape(scan, scan_session, low, high) == (results, 1_000)
        counts.append(results)
    assert counts[0] > 0 and counts[-1] == 0  # a bracket with results, an empty one


def test_directory_answers_past_states(indexed_db):
    db, session, directory = indexed_db
    t_before = db.store.last_tx_time
    # re-key a known employee far upward
    victim = session.execute(
        "World!employees detect: [:e | true]"
    )
    session.session.bind(victim.oid, "salary", 10_000_000)
    session.commit()
    # now: the victim matches; then: it matches only its old key
    assert victim.oid in directory.lookup(10_000_000)
    assert victim.oid not in directory.lookup(10_000_000, time=t_before)
    old_salary = db.store.object(victim.oid).value_at("salary", t_before)
    assert victim.oid in directory.lookup(old_salary, time=t_before)


def test_bench_select_with_directory(indexed_db, benchmark):
    _db, session, _directory = indexed_db
    benchmark(session.execute, QUERY)


def test_bench_select_scan(scan_db, benchmark):
    _db, session, _ = scan_db
    benchmark(session.execute, QUERY)


def test_bench_directory_maintenance_on_commit(indexed_db, benchmark):
    db, session, _directory = indexed_db
    emp = session.execute("World!employees detect: [:e | true]")
    salary = [100]

    def rekey_commit():
        salary[0] += 1
        session.session.bind(emp.oid, "salary", salary[0])
        return session.commit()

    benchmark(rekey_commit)


def main() -> None:
    sweep = Table(
        "E9: selection cost, scan vs directory (ms, best of 3)",
        ["employees", "scan", "directory", "speedup"],
    )
    for count in (200, 1_000, 4_000):
        _db, scan_session, _ = build(count, indexed=False)
        _db2, indexed_session, _d = build(count, indexed=True)
        scan = stopwatch(lambda: scan_session.execute(QUERY), 3)
        indexed = stopwatch(lambda: indexed_session.execute(QUERY), 3)
        sweep.add(count, scan.millis, indexed.millis,
                  ratio(scan.seconds, indexed.seconds))
    sweep.note("crossover immediately; gap widens linearly with set size")
    sweep.show()

    shape = Table(
        "E9: two-sided range [low, high): members examined per plan",
        ["employees", "range", "results", "scan", "directory"],
    )
    for count in (1_000, 4_000):
        scan_db, scan_session, _ = build(count, indexed=False)
        db, session, _d = build(count, indexed=True)
        for low, high in RANGES:
            results, examined = range_shape(db, session, low, high)
            _same, scanned = range_shape(scan_db, scan_session, low, high)
            assert examined == results and scanned == count
            shape.add(count, f"[{low}, {high})", results, scanned, examined)
    shape.note("asserted shape: entries examined = results, at every width")
    shape.show()

    past = Table("E9: the same index serving a past state",
                 ["query", "members found"])
    db, session, directory = build(500, indexed=True)
    t0 = db.store.last_tx_time
    session.execute(
        "World!employees do: [:e | e at: 'salary' put: 10000000]"
    )
    session.commit()
    past.add("salary = 10,000,000 now", len(directory.lookup(10_000_000)))
    past.add(f"salary = 10,000,000 @ {t0}",
             len(directory.lookup(10_000_000, time=t0)))
    past.note("interval-stamped entries: history is indexed too")
    past.show()


if __name__ == "__main__":
    main()
