"""SlowQueryLog retention and the OPAL block unparser."""

import pytest

from repro.core import MemoryObjectManager
from repro.obs import SlowQueryLog, describe_plan, render_block
from repro.opal import OpalEngine


def entry(ms, tag):
    return {"elapsed_ms": ms, "tag": tag}


def test_keeps_only_the_slowest_capacity_entries():
    log = SlowQueryLog(capacity=3)
    for ms in (5.0, 1.0, 9.0, 3.0, 7.0):
        log.record(entry(ms, ms))
    slowest = [e["tag"] for e in log.slowest()]
    assert slowest == [9.0, 7.0, 5.0]
    assert log.total_queries == 5
    assert len(log) == 3


def test_threshold_counts_but_does_not_keep():
    log = SlowQueryLog(capacity=8, threshold_ms=2.0)
    log.record(entry(1.0, "fast"))
    log.record(entry(3.0, "slow"))
    assert log.total_queries == 2
    assert [e["tag"] for e in log.slowest()] == ["slow"]


def test_slowest_n_limits_and_orders():
    log = SlowQueryLog(capacity=10)
    for ms in range(6):
        log.record(entry(float(ms), ms))
    assert [e["tag"] for e in log.slowest(2)] == [5, 4]


def test_ties_are_kept_in_arrival_order():
    log = SlowQueryLog(capacity=4)
    log.record(entry(1.0, "first"))
    log.record(entry(1.0, "second"))
    tags = [e["tag"] for e in log.slowest()]
    assert set(tags) == {"first", "second"}


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        SlowQueryLog(capacity=0)


def rendered_block(source):
    """Compile one OPAL block literal; unparse it with its own literals."""
    engine = OpalEngine(MemoryObjectManager())
    closure = engine.execute(source)
    return render_block(closure.compiled.ast, closure.literals)


@pytest.mark.parametrize(
    "source, rendered",
    [
        ("[:e | e!salary > 40]", "[:e | e!salary > 40]"),
        ("[:e | (e!age >= 21) & (e!age <= 65)]",
         "[:e | (e!age >= 21) & (e!age <= 65)]"),
        ("[:e | e!name = 'Joe''s']", "[:e | e!name = 'Joe''s']"),
        ("[:e | (e!tags) includes: 'vip']", "[:e | e!tags includes: 'vip']"),
        ("[:e | (e!salary@3) > 10]", "[:e | e!salary@3 > 10]"),
        ("[:e | (e!done) not]", "[:e | e!done not]"),
    ],
)
def test_render_block_reconstructs_select_source(source, rendered):
    assert rendered_block(source) == rendered


def test_rendered_block_recompiles_to_the_same_rendering():
    rendered = rendered_block("[:e | (e!dept = 'R+D') & (e!salary > 10)]")
    assert rendered_block(rendered) == rendered


def test_render_block_degrades_to_repr_off_ast():
    assert render_block(42) == "42"


def test_describe_plan_walks_the_operator_chain():
    class Leaf:
        child = None

        def describe(self):
            return "Unit"

    class Root:
        def __init__(self, child):
            self.child = child

        def describe(self):
            return "Filter x > 1"

    assert describe_plan(Root(Leaf())) == ["Filter x > 1", "Unit"]


# -- rendering is paid for only by entries the log keeps ---------------------


def test_offer_renders_only_what_it_keeps():
    log = SlowQueryLog(capacity=2, threshold_ms=1.0)
    rendered = []

    def render(tag, ms):
        def build():
            rendered.append(tag)
            return entry(ms, tag)
        return build

    log.offer(0.5, render("under-threshold", 0.5))
    log.offer(5.0, render("a", 5.0))
    log.offer(9.0, render("b", 9.0))
    log.offer(2.0, render("faster-than-all-kept", 2.0))
    log.offer(7.0, render("c", 7.0))
    assert rendered == ["a", "b", "c"]
    assert log.total_queries == 5  # counted whether kept or not
    assert [e["tag"] for e in log.slowest()] == ["b", "c"]


def test_fast_select_against_a_full_log_renders_nothing(monkeypatch):
    from repro import GemStone
    from repro.obs import slowlog

    db = GemStone.create()
    session = db.login()
    session.execute("""
        | b | b := Bag new.
        1 to: 5 do: [:i | | o | o := Object new. o!n := i. b add: o].
        World!things := b
    """)
    log = db.obs.slow_queries
    for i in range(log.capacity):  # a full log of hour-long queries
        log.record(entry(3.6e6 + i, f"slow{i}"))
    kept_before = log.slowest()
    counted_before = log.total_queries

    calls = []
    for name in ("describe_plan", "render_block"):
        real = getattr(slowlog, name)
        monkeypatch.setattr(
            slowlog, name,
            lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a),
        )
    assert session.execute("(World!things select: [:o | o!n > 2]) size") == 3
    assert calls == []
    assert log.total_queries == counted_before + 1
    assert log.slowest() == kept_before

    # the same query on a log with room is rendered and kept as before
    log.clear()
    assert session.execute("(World!things select: [:o | o!n > 2]) size") == 3
    assert sorted(calls) == ["describe_plan", "render_block"]
    kept, = log.slowest()
    assert kept["source"] == "[:o | o!n > 2]"
    assert kept["result_count"] == 3 and kept["outcome"] == "ok"
    assert any("BindScan" in step for step in kept["plan"])
