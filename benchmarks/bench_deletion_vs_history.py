"""E15 — replacing deletion with history (section 2E).

"A temporal data model replaces deletion by maintaining object history,
thereby exploiting this cost trend [cheap mass storage] by offering
historical access for users."

The harness runs a delete-heavy order-processing workload: orders are
filed, fulfilled, and 'deleted'.  It reports the storage the history
costs versus a hypothetical destructive store, and then answers the
audit queries a destructive store cannot answer at all.

Run the harness:   python benchmarks/bench_deletion_vs_history.py
Run the timings:   pytest benchmarks/bench_deletion_vs_history.py --benchmark-only
"""

import pytest

from repro import GemStone
from repro.storage import encode_object

from harness import Table


def run_order_mill(db, orders: int, batch: int = 10):
    """File and then delete orders in batches; returns (oids, times)."""
    session = db.login()
    session.execute("World!orders := Dictionary new")
    session.commit()
    oids = []
    deleted_at = {}
    for start in range(0, orders, batch):
        block = []
        for index in range(start, min(start + batch, orders)):
            block.append(
                f"World!orders at: 'O{index}' put: "
                f"(Object new at: 'item' put: 'widget-{index}'; yourself)"
            )
        session.execute(". ".join(block))
        session.commit()
        # delete the batch right away (fulfilled orders)
        removals = [
            f"World!orders removeKey: 'O{index}'"
            for index in range(start, min(start + batch, orders))
        ]
        session.execute(". ".join(removals))
        t = session.commit()
        for index in range(start, min(start + batch, orders)):
            deleted_at[f"O{index}"] = t
    session.close()
    return deleted_at


@pytest.fixture(scope="module")
def mill():
    db = GemStone.create(track_count=16_384, track_size=2048)
    deleted_at = run_order_mill(db, orders=60)
    return db, deleted_at


def test_current_state_looks_deleted(mill):
    db, _ = mill
    session = db.login()
    assert session.execute("World!orders size") == 0


def test_every_deleted_order_is_auditable(mill):
    db, deleted_at = mill
    session = db.login()
    for key, t_deleted in list(deleted_at.items())[:10]:
        item = session.execute(
            f"| o | o := World!orders!'{key}' @ {t_deleted - 1}. o at: 'item'"
        )
        assert item == f"widget-{key[1:]}"


def test_deletion_is_a_nil_binding_not_destruction(mill):
    db, deleted_at = mill
    orders = db.store.object(db.login().resolve("orders").oid)
    key = next(iter(deleted_at))
    history = list(orders.history_of(key))
    assert history[-1][1] is None  # the departure
    assert history[0][1] is not None  # the filing


def test_trend_queries_over_history(mill):
    """'Events and trends that led to a particular state' (section 2E)."""
    db, deleted_at = mill
    orders = db.store.object(db.login().resolve("orders").oid)
    lifetime_orders = sum(
        1 for name in orders.elements if str(name).startswith("O")
    )
    assert lifetime_orders == 60  # all 60 visible to trend analysis


def test_bench_audit_query(mill, benchmark):
    db, deleted_at = mill
    session = db.login()
    key, t = next(iter(deleted_at.items()))
    source = f"| o | o := World!orders!'{key}' @ {t - 1}. o at: 'item'"
    benchmark(session.execute, source)


def test_bench_file_and_delete_cycle(benchmark):
    db = GemStone.create(track_count=32_768, track_size=2048)
    session = db.login()
    session.execute("World!orders := Dictionary new")
    session.commit()
    counter = [0]

    def cycle():
        counter[0] += 1
        key = f"O{counter[0]}"
        session.execute(
            f"World!orders at: '{key}' put: "
            f"(Object new at: 'item' put: 'w'; yourself)"
        )
        session.commit()
        session.execute(f"World!orders removeKey: '{key}'")
        return session.commit()

    benchmark.pedantic(cycle, rounds=25, iterations=1)


def main() -> None:
    db = GemStone.create(track_count=16_384, track_size=2048)
    deleted_at = run_order_mill(db, orders=60)
    session = db.login()

    orders_obj = db.store.object(session.resolve("orders").oid)
    record_bytes = len(encode_object(orders_obj))
    # a destructive store would keep only the (empty) current state
    destructive_bytes = len(encode_object(
        type(orders_obj)(orders_obj.oid, orders_obj.class_oid)
    ))

    cost = Table("E15: what history costs on a delete-heavy workload",
                 ["metric", "with history", "destructive store"])
    cost.add("orders visible now", session.execute("World!orders size"), 0)
    cost.add("orders auditable", len(deleted_at), 0)
    cost.add("orders-object record bytes", record_bytes, destructive_bytes)
    cost.note("the paper's bet: that byte gap is what cheap mass storage buys")
    cost.show()

    key, t = next(iter(deleted_at.items()))
    audit = Table("E15: audit queries a destructive store cannot answer",
                  ["query", "answer"])
    audit.add(f"{key} just before deletion",
              session.execute(
                  f"| o | o := World!orders!'{key}' @ {t - 1}. o at: 'item'"))
    audit.add(f"when was {key} deleted",
              next(time for time, value
                   in orders_obj.history_of(key) if value is None))
    audit.add("orders ever filed",
              sum(1 for name in orders_obj.elements
                  if str(name).startswith("O")))
    audit.show()


if __name__ == "__main__":
    main()
