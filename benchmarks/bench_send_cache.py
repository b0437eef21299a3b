"""E-send — method-lookup caching: repeated sends down a deep hierarchy.

The ST80 implementation lineage behind the paper (Deutsch & Schiffman's
inline caches) resolves a send once per call site and validates the
cached resolution cheaply thereafter.  This harness measures exactly
that: a selector defined at the *root* of a 12-deep class chain, sent
repeatedly from a loop, with the caching subsystem enabled vs disabled
(``store.perf.enabled``).  Uncached, every send walks the full chain
through the Object Manager; cached, the call site's inline cache (or
the store's method table) answers after one miss.

Run the harness:   python benchmarks/bench_send_cache.py
Run the timings:   pytest benchmarks/bench_send_cache.py --benchmark-only
"""

import pytest

from repro.bench import Table, ratio, stopwatch
from repro.core import MemoryObjectManager
from repro.opal import OpalEngine
from repro.perf import stats

#: hierarchy depth — uncached lookup cost is linear in this
DEPTH = 24


def build_engine() -> OpalEngine:
    """An engine with C0..C{DEPTH-1} chained and a leaf-side driver.

    The probed selector ``one`` is a root-class *primitive* — the same
    shape as the kernel's Integer/String methods, whose dispatch is pure
    lookup cost (no frame setup), so the cache's effect is undiluted.
    """
    store = MemoryObjectManager()
    engine = OpalEngine(store)
    source = ["Object subclass: #C0 instVarNames: #()."]
    for level in range(1, DEPTH):
        source.append(f"C{level - 1} subclass: #C{level} instVarNames: #().")
    leaf = f"C{DEPTH - 1}"
    source.append(
        f"{leaf} compile: 'pump: n | s | s := 0."
        " 1 to: n do: [:i |"
        " s := s + self one + self one + self one + self one]. ^s'."
    )
    source.append(f"World!probe := {leaf} new")
    engine.execute("\n".join(source))
    store.class_named("C0").define_primitive("one", lambda m, r: 1)
    return engine


def _pump(engine: OpalEngine, n: int):
    probe = engine.execute("World!probe")
    return engine.send(probe, "pump:", n)


def test_pump_computes_correctly():
    engine = build_engine()
    assert _pump(engine, 50) == 200


def test_cached_and_uncached_agree():
    engine = build_engine()
    engine.store.perf.enabled = False
    cold = _pump(engine, 200)
    engine.store.perf.enabled = True
    warm = _pump(engine, 200)
    assert cold == warm == 800


def test_warm_sends_never_miss_the_inline_caches():
    """The cache's effect as a count: once the call sites are warm,
    every send of ``pump:`` is answered by its inline cache."""
    engine = build_engine()
    _pump(engine, 10)
    engine.store.perf.reset_stats()
    _pump(engine, 200)
    inline = stats(engine)["inline_cache"]
    assert inline["misses"] == 0
    assert inline["hits"] > 4 * 200


def test_bench_sends_cached(benchmark):
    engine = build_engine()
    _pump(engine, 10)  # populate the inline caches
    benchmark(_pump, engine, 1000)


def test_bench_sends_uncached(benchmark):
    engine = build_engine()
    engine.store.perf.enabled = False
    benchmark(_pump, engine, 1000)


def main(argv=None) -> None:
    smoke = argv is not None and "--smoke" in argv
    loops = 1_000 if smoke else 10_000
    sends = 4 * loops  # `pump:` sends #one four times per iteration
    repeat = 3

    engine = build_engine()
    perf = engine.store.perf

    perf.enabled = False
    uncached = stopwatch(lambda: _pump(engine, loops), repeat)

    perf.enabled = True
    perf.reset_stats()
    _pump(engine, 10)  # warm the call sites once
    cached = stopwatch(lambda: _pump(engine, loops), repeat)

    assert cached.result == uncached.result == sends

    table = Table(
        f"E-send: {sends:,} sends of an inherited selector (depth {DEPTH})",
        ["mode", "time (ms)", "sends/sec", "vs uncached"],
    )
    table.add("uncached (perf disabled)", uncached.millis,
              sends / uncached.seconds, "1.0x")
    table.add("cached (inline + method cache)", cached.millis,
              sends / cached.seconds, ratio(uncached.seconds, cached.seconds))
    report = stats(engine)
    table.note(
        f"inline cache hit rate {report['inline_cache']['hit_rate']:.3f}, "
        f"method cache hit rate {report['method_cache']['hit_rate']:.3f}"
    )
    table.show()


if __name__ == "__main__":
    main()
