"""Method-lookup caching as counts: repeated sends down a deep hierarchy.

A selector defined at the root of a 24-deep class chain is sent four
times per turn of a loop.  Uncached (``store.perf.enabled`` off) every
send walks the whole chain through the Object Manager; cached, each call
site's inline cache answers after its first miss.  Both modes must
compute the same sum.
"""

from repro.core import MemoryObjectManager
from repro.opal import OpalEngine
from repro.perf import stats

#: hierarchy depth — uncached lookup cost is linear in this
DEPTH = 24


def build_engine() -> OpalEngine:
    """An engine with C0..C{DEPTH-1} chained and a leaf-side driver.

    The probed selector ``one`` is a root-class *primitive* — the same
    shape as the kernel's Integer/String methods, whose dispatch is pure
    lookup cost (no frame setup).
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


def test_cached_and_uncached_agree():
    engine = build_engine()
    engine.store.perf.enabled = False
    cold = _pump(engine, 200)
    engine.store.perf.enabled = True
    warm = _pump(engine, 200)
    assert cold == warm == 800


def test_warm_sends_never_miss_the_inline_caches():
    """Once the call sites are warm, every send of ``pump:`` is answered
    by its inline cache."""
    engine = build_engine()
    _pump(engine, 10)
    engine.store.perf.reset_stats()
    _pump(engine, 200)
    inline = stats(engine)["inline_cache"]
    assert inline["misses"] == 0
    assert inline["hits"] > 4 * 200
