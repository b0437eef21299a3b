"""E7 — optimistic concurrency control (section 6).

"The Transaction Manager ... handles concurrent use of the permanent
database in an optimistic manner.  It records accesses to the database
for each session, and validates them for consistency when a transaction
commits."

The harness interleaves read-modify-write transactions over a pool of
objects at varying contention (pool size 1 = everyone fights; large pool
= rarely collide) and reports commit/abort rates; the expected shape is
abort rate rising toward 1 as contention concentrates, with disjoint
workloads aborting never.

Run the harness:   python benchmarks/bench_occ.py
Run the timings:   pytest benchmarks/bench_occ.py --benchmark-only
"""

import random

import pytest

from repro import GemStone
from repro.bench import Table
from repro.errors import OverloadedError, TransactionConflict


def make_pool(db, size: int):
    session = db.login()
    pool = []
    for index in range(size):
        obj = session.new("Object", n=0)
        session.assign(f"slot{index}", obj)
        pool.append(obj.oid)
    session.commit()
    session.close()
    return pool


def contention_rounds(db, pool, sessions: int, rounds: int, seed: int = 11):
    """Interleaved increments: each round, every session reads one
    random object, then all commit in turn.  Yields each round's
    (commits, aborts, priority grants the round raised)."""
    rng = random.Random(seed)
    stats = db.transaction_manager.stats
    workers = [db.login() for _ in range(sessions)]
    try:
        for _round in range(rounds):
            grants = stats.priority_grants
            commits = aborts = 0
            picks = [rng.choice(pool) for _ in workers]
            for worker, oid in zip(workers, picks):
                value = worker.session.value_at(oid, "n")
                worker.session.bind(oid, "n", value + 1)
            for worker in workers:
                try:
                    worker.commit()
                    commits += 1
                except TransactionConflict:
                    aborts += 1
                except OverloadedError:
                    # a starving session holds commit priority: back off,
                    # discard the workspace, and retry in the next round
                    worker.abort()
                    aborts += 1
            yield commits, aborts, stats.priority_grants - grants
    finally:
        for worker in workers:
            worker.close()


def run_contention(db, pool, sessions: int, rounds: int, seed: int = 11):
    """(commits, aborts) summed over :func:`contention_rounds`."""
    per_round = list(contention_rounds(db, pool, sessions, rounds, seed))
    return (sum(commits for commits, _, _ in per_round),
            sum(aborts for _, aborts, _ in per_round))


@pytest.fixture(scope="module")
def db():
    return GemStone.create(track_count=8192, track_size=2048)


def test_disjoint_transactions_never_abort(db):
    pool = make_pool(db, 64)
    workers = [db.login() for _ in range(4)]
    for index, worker in enumerate(workers):
        oid = pool[index]  # strictly disjoint slots
        value = worker.session.value_at(oid, "n")
        worker.session.bind(oid, "n", value + 1)
    for worker in workers:
        worker.commit()  # must not raise
        worker.close()


def test_full_contention_has_at_most_one_winner_per_round(db):
    pool = make_pool(db, 1)
    per_round = list(contention_rounds(db, pool, sessions=4, rounds=10))
    assert sum(commits for commits, _, _ in per_round) == 9
    assert sum(aborts for _, aborts, _ in per_round) == 31
    assert all(commits <= 1 for commits, _, _ in per_round)
    # Round 8's first committer began at its round-7 abort, before that
    # round's winner committed: its third conflict in a row grants it
    # commit priority, so the other three are pushed back with
    # OverloadedError and the round has no winner.  A round is left
    # without one only where it raised a priority grant.
    winnerless = [index for index, (commits, _, _) in enumerate(per_round)
                  if commits == 0]
    assert winnerless == [8]
    assert all(per_round[index][2] > 0 for index in winnerless)

    # and the final value equals the number of successful commits
    session = db.login()
    assert session.session.value_at(pool[0], "n") == 9


def test_abort_rate_rises_with_contention(db):
    results = {}
    for pool_size in (1, 16, 256):
        pool = make_pool(db, pool_size)
        commits, aborts = run_contention(db, pool, sessions=4, rounds=25)
        results[pool_size] = aborts / (commits + aborts)
    assert results[1] > results[16] >= results[256]


def test_lost_updates_never_happen(db):
    """Every successful commit's increment survives (serializability)."""
    pool = make_pool(db, 4)
    commits, _aborts = run_contention(db, pool, sessions=3, rounds=20)
    session = db.login()
    total = sum(session.session.value_at(oid, "n") for oid in pool)
    assert total == commits


def test_bench_uncontended_commit(db, benchmark):
    session = db.login()
    counter = session.new("Object", n=0)
    session.assign("benchCounter", counter)
    session.commit()

    def bump():
        value = session.session.value_at(counter.oid, "n")
        session.session.bind(counter.oid, "n", value + 1)
        return session.commit()

    benchmark(bump)


def test_bench_validation_under_history(db, benchmark):
    """Validation cost with a long committed-transaction log behind it."""
    pool = make_pool(db, 8)
    run_contention(db, pool, sessions=4, rounds=10)
    session = db.login()

    def read_only_commit():
        for oid in pool:
            session.session.value_at(oid, "n")
        return session.commit()

    benchmark(read_only_commit)


def main() -> None:
    table = Table(
        "E7: optimistic concurrency, 4 sessions x 25 interleaved rounds",
        ["shared objects", "commits", "aborts", "abort rate", "throughput"],
    )
    for pool_size in (1, 4, 16, 64, 256):
        db = GemStone.create(track_count=8192, track_size=2048)
        pool = make_pool(db, pool_size)
        import time

        start = time.perf_counter()
        commits, aborts = run_contention(db, pool, sessions=4, rounds=25)
        elapsed = time.perf_counter() - start
        table.add(
            pool_size, commits, aborts,
            f"{aborts / (commits + aborts):.2f}",
            f"{commits / elapsed:,.0f} commits/s",
        )
    table.note("contention concentrates -> aborts rise; losers retry, "
               "never block (the optimistic trade)")
    table.show()


if __name__ == "__main__":
    main()
