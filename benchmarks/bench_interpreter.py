"""Ablation — the OPAL Interpreter: bytecode dispatch costs.

Section 6: "The Interpreter is an abstract stack machine that executes
compiledMethods consisting of sequences of bytecodes."  This ablation
measures the core dispatch rates — message sends, block calls, path
fetches, instance-variable access — so regressions in the stack machine
are visible.

Run the harness:   python benchmarks/bench_interpreter.py
Run the timings:   pytest benchmarks/bench_interpreter.py --benchmark-only
"""

import pytest

from repro.core import MemoryObjectManager
from repro.opal import OpalEngine

from harness import Table, stopwatch


@pytest.fixture(scope="module")
def engine():
    engine = OpalEngine(MemoryObjectManager())
    engine.execute("""
        Object subclass: #Point instVarNames: #(x y).
        Point compile: 'x ^x'.
        Point compile: 'setX: ax y: ay x := ax. y := ay'.
        Point compile: 'manhattan ^x abs + y abs'.
        | p | p := Point new. p setX: 3 y: -4.
        World!p := p
    """)
    return engine


SEND_LOOP = "| n | n := 0. 1 to: 1000 do: [:i | n := n + (World!p manhattan)]. n"
BLOCK_LOOP = "| b n | b := [:x | x + 1]. n := 0. 1 to: 1000 do: [:i | n := b value: n]. n"
PATH_LOOP = "| n | n := 0. 1 to: 1000 do: [:i | n := n + World!p!x]. n"
ARITH_LOOP = "| n | n := 0. 1 to: 1000 do: [:i | n := n + (i * 2) - 1]. n"


def test_loops_compute_correctly(engine):
    assert engine.execute(SEND_LOOP) == 7000
    assert engine.execute(BLOCK_LOOP) == 1000
    assert engine.execute(PATH_LOOP) == 3000
    assert engine.execute(ARITH_LOOP) == 1_000_000


def test_bench_message_sends(engine, benchmark):
    benchmark(engine.execute, SEND_LOOP)


def test_bench_block_calls(engine, benchmark):
    benchmark(engine.execute, BLOCK_LOOP)


def test_bench_path_fetches(engine, benchmark):
    benchmark(engine.execute, PATH_LOOP)


def test_bench_arithmetic(engine, benchmark):
    benchmark(engine.execute, ARITH_LOOP)


def test_bench_compilation(engine, benchmark):
    from repro.opal import Compiler

    source = """
        | a b c |
        a := 1. b := a + 2. c := b * b.
        #(1 2 3) do: [:x | c := c + x].
        c > 10 ifTrue: ['big'] ifFalse: ['small']
    """
    benchmark(lambda: Compiler().compile_source(source))


def main() -> None:
    engine = OpalEngine(MemoryObjectManager())
    engine.execute("""
        Object subclass: #Point instVarNames: #(x y).
        Point compile: 'x ^x'.
        Point compile: 'setX: ax y: ay x := ax. y := ay'.
        Point compile: 'manhattan ^x abs + y abs'.
        | p | p := Point new. p setX: 3 y: -4. World!p := p
    """)
    table = Table("Interpreter dispatch rates (1000-iteration loops)",
                  ["operation", "loop time (ms)", "per op (µs)"])
    for label, source, ops in [
        ("method send + 2 instvar reads", SEND_LOOP, 1000),
        ("block call", BLOCK_LOOP, 1000),
        ("path fetch (2 components)", PATH_LOOP, 1000),
        ("arithmetic sends", ARITH_LOOP, 3000),
    ]:
        timing = stopwatch(lambda s=source: engine.execute(s), 3)
        table.add(label, timing.millis, timing.micros / ops)
    table.show()


if __name__ == "__main__":
    main()
