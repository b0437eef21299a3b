"""E14 — the Executor: blocks of OPAL over the host link (section 6).

"Communication with GemStone is done in blocks of OPAL source code.
Compilation and execution of those blocks is done entirely in the
GemStone system."

The harness measures round-trip cost as block size grows, and the win of
batching many statements into one block versus one round trip each —
the design point of shipping source blocks rather than chatty calls.

Run the harness:   python benchmarks/bench_executor.py
Run the timings:   pytest benchmarks/bench_executor.py --benchmark-only
"""

import pytest

from repro import GemStone
from repro.executor import HostConnection

from harness import Table, ratio, stopwatch


@pytest.fixture(scope="module")
def conn():
    db = GemStone.create(track_count=8192, track_size=2048)
    connection = HostConnection(db)
    connection.login("DataCurator", "swordfish")
    return connection


def batched_block(statements: int) -> str:
    lines = ["| t |", "t := 0."]
    lines += [f"t := t + {i}." for i in range(1, statements + 1)]
    lines += ["t"]
    return "\n".join(lines)


def test_round_trip_correctness(conn):
    value, display = conn.execute("6 * 7")
    assert value == 42
    assert display == "42"


def test_batched_block_equals_chatty_result(conn):
    n = 50
    batched, _ = conn.execute(batched_block(n))
    conn.execute("World!t := 0")
    for i in range(1, n + 1):
        conn.execute(f"World!t := World!t + {i}")
    chatty, _ = conn.execute("World!t")
    assert batched == chatty == n * (n + 1) // 2


def test_compilation_happens_inside_gemstone(conn):
    """The host never parses OPAL; a syntax error is a returned frame."""
    from repro import GemStoneError

    with pytest.raises(GemStoneError):
        conn.execute("this is not OPAL ::=")
    value, _ = conn.execute("1 + 1")  # link and session still healthy
    assert value == 2


def test_bench_small_round_trip(conn, benchmark):
    benchmark(conn.execute, "3 + 4")


def test_bench_large_block_round_trip(conn, benchmark):
    block = batched_block(200)
    benchmark(conn.execute, block)


def test_bench_wire_framing_only(benchmark):
    from repro.executor import make_link

    host, gem = make_link()
    payload = b"x" * 1024

    def frame_round_trip():
        host.send(payload)
        data = gem.receive()
        gem.send(data)
        return host.receive()

    assert benchmark(frame_round_trip) == payload


def main() -> None:
    db = GemStone.create(track_count=8192, track_size=2048)
    conn = HostConnection(db)
    conn.login("DataCurator", "swordfish")

    sizes = Table("E14: round-trip cost vs block size",
                  ["statements in block", "block bytes", "round trip (ms)"])
    for statements in (1, 10, 100, 500):
        block = batched_block(statements)
        timing = stopwatch(lambda b=block: conn.execute(b), 3)
        sizes.add(statements, len(block), timing.millis)
    sizes.show()

    n = 100
    batched = stopwatch(lambda: conn.execute(batched_block(n)), 3)

    def chatty():
        conn.execute("World!t := 0")
        for i in range(1, n + 1):
            conn.execute(f"World!t := World!t + {i}")
        return conn.execute("World!t")

    chatty_timing = stopwatch(chatty, 3)
    batch = Table("E14: one block vs one round trip per statement (100 stmts)",
                  ["strategy", "time (ms)", "frames"])
    batch.add("one batched block", batched.millis, 2)
    batch.add("chatty (per statement)", chatty_timing.millis, (n + 2) * 2)
    batch.note(f"batching wins {ratio(chatty_timing.seconds, batched.seconds)} "
               "— why GemStone ships source blocks")
    batch.show()


if __name__ == "__main__":
    main()
