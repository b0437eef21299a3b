"""E5 — arrays as sets with integer element names (section 5.2).

Regenerates the paper's array example and measures that element access
through integer names stays O(1)-ish as arrays grow (it is a dict access
in the object's element map), both in memory and through the database.

Run the harness:   python benchmarks/bench_array_sets.py
Run the timings:   pytest benchmarks/bench_array_sets.py --benchmark-only
"""

import pytest

from repro import GemStone
from repro.core import MemoryObjectManager
from repro.stdm import LabeledSet, format_set
from repro.stdm.algebra import intersection, union

from harness import Table, stopwatch


PAPER_ARRAY = {
    1: ["Anders", "Roberts"],
    2: ["Roberts", "Ching"],
    3: ["Albrecht", "Ching"],
}


def build_array(store, size: int):
    array = store.instantiate("Array", size=size)
    for index in range(1, size + 1):
        store.bind(array, index, index * 10)
    return array


def test_paper_array_regenerates():
    array = LabeledSet.from_nested(PAPER_ARRAY)
    assert array.navigate("2").values() == ["Roberts", "Ching"]
    assert set(array.names()) == {1, 2, 3}


def test_arbitrary_index_sets():
    """The index set need not be positive integers (section 5.2)."""
    array = LabeledSet({-3: "below", 0: "zero", "monday": "named"})
    assert array[-3] == "below"
    assert array["monday"] == "named"


def test_array_protocol_in_opal():
    from repro.opal import OpalEngine

    engine = OpalEngine(MemoryObjectManager())
    assert engine.execute(
        "| a | a := Array new: 100. a at: 50 put: 'mid'. a at: 50"
    ) == "mid"


def test_access_cost_flat_across_sizes():
    om = MemoryObjectManager()
    small = build_array(om, 100)
    large = build_array(om, 100_000)
    t_small = stopwatch(lambda: om.value_at(small, 50), repeat=5)
    t_large = stopwatch(lambda: om.value_at(large, 50_000), repeat=5)
    # associative access: no linear scan hiding inside
    assert t_large.seconds < t_small.seconds * 50 + 1e-3


def test_bench_memory_array_access(benchmark):
    om = MemoryObjectManager()
    array = build_array(om, 10_000)
    benchmark(om.value_at, array, 5_000)


def test_bench_database_array_access(benchmark):
    db = GemStone.create()
    session = db.login()
    array = build_array(session.session, 1_000)
    session.assign("array", array)
    session.commit()
    benchmark(session.session.value_at, array.oid, 500)


def _set_op_timing(om, size: int) -> tuple[float, float]:
    """Best-of-3 union/intersection time over *size*-object member lists."""
    def members(start):
        return [
            om.instantiate("Object", N=start + i) for i in range(size)
        ]

    a, b = members(0), members(size // 2)
    t_union = stopwatch(lambda: union(a, b), 3)
    t_inter = stopwatch(lambda: intersection(a, b), 3)
    return t_union.seconds, t_inter.seconds


def hashed_set_op_guard(om=None) -> dict:
    """Guard: union/intersection must scale near-linearly, not O(n²).

    The ``_MemberIndex`` keys members by oid hash; if someone regresses
    it to the ``value_equal`` scan, 8x the members costs ~64x the time
    and this trips long before CI times out.
    """
    om = om or MemoryObjectManager()
    small_union, small_inter = _set_op_timing(om, 500)
    big_union, big_inter = _set_op_timing(om, 4_000)
    # 8x members: linear ≈ 8x, quadratic ≈ 64x; 24x is the tripwire
    union_scale = big_union / max(small_union, 1e-9)
    inter_scale = big_inter / max(small_inter, 1e-9)
    assert union_scale < 24, f"union scaling looks quadratic: {union_scale:.1f}x"
    assert inter_scale < 24, f"intersection scaling looks quadratic: {inter_scale:.1f}x"
    return {
        "union_scale_8x_members": union_scale,
        "intersection_scale_8x_members": inter_scale,
        "union_seconds_4000": big_union,
        "intersection_seconds_4000": big_inter,
    }


def test_hashed_set_ops_scale_linearly():
    hashed_set_op_guard()


def main() -> None:
    print("E5: the paper's array, as a set with integer element names:")
    print(" ", format_set(LabeledSet.from_nested(PAPER_ARRAY)))
    print()

    om = MemoryObjectManager()
    sweep = Table("E5: element access vs array size (µs, best of 5)",
                  ["size", "access middle element"])
    for size in (100, 10_000, 100_000):
        array = build_array(om, size)
        timing = stopwatch(lambda a=array, s=size: om.value_at(a, s // 2), 5)
        sweep.add(size, timing.micros)
    sweep.note("flat: integer element names are associative, not positional")
    sweep.show()

    guard = hashed_set_op_guard(om)
    ops = Table("E5: hashed set operations guard (8x members)",
                ["operation", "time at 4000 (ms)", "scale vs 500"])
    ops.add("union", guard["union_seconds_4000"] * 1e3,
            f"{guard['union_scale_8x_members']:.1f}x")
    ops.add("intersection", guard["intersection_seconds_4000"] * 1e3,
            f"{guard['intersection_scale_8x_members']:.1f}x")
    ops.note("near-linear: _MemberIndex keys members by oid hash")
    ops.show()


if __name__ == "__main__":
    main()
