"""E4 — set-valued attributes vs relational flattening (section 5.2).

Regenerates the children table, then quantifies the paper's
"unavoidable redundancy": flattened storage grows with family size
while STDM keeps one entity, and the subset test that needs two
relational quantifiers stays one construct.

Run the harness:   python benchmarks/bench_flattening.py
Run the timings:   pytest benchmarks/bench_flattening.py --benchmark-only
"""

import pytest

from repro.stdm import (
    LabeledSet,
    flatten_set_valued,
    unflatten_to_sets,
)

from harness import Table


def family(index: int, children: int) -> LabeledSet:
    return LabeledSet.from_nested({
        "Name": {"First": f"F{index}", "Last": f"L{index}"},
        "Children": [f"kid-{index}-{k}" for k in range(children)],
    })


def families(count: int, children: int) -> list[LabeledSet]:
    return [family(i, children) for i in range(count)]


def flattened_cells(entities) -> int:
    attrs, rows = flatten_set_valued(
        entities, ["Name!First", "Name!Last"], "Children", "Child"
    )
    return len(rows) * len(attrs)


def stdm_cells(entities) -> int:
    total = 0
    for entity in entities:
        total += 2  # First, Last stored once
        total += len(entity["Children"])
    return total


def test_paper_example_regenerates():
    robert = LabeledSet.from_nested({
        "Name": {"First": "Robert", "Last": "Peters"},
        "Children": ["Olivia", "Dale", "Paul"],
    })
    attrs, rows = flatten_set_valued(
        [robert], ["Name!First", "Name!Last"], "Children", "Child"
    )
    assert attrs == ["First", "Last", "Child"]
    assert sorted(rows) == [
        ("Robert", "Peters", "Dale"),
        ("Robert", "Peters", "Olivia"),
        ("Robert", "Peters", "Paul"),
    ]


def test_redundancy_grows_with_children():
    """Redundant cells grow linearly in family size; STDM's stay flat."""
    small = families(100, 2)
    large = families(100, 8)
    assert flattened_cells(large) / flattened_cells(small) > 2.5
    overhead_small = flattened_cells(small) / stdm_cells(small)
    overhead_large = flattened_cells(large) / stdm_cells(large)
    assert overhead_large > overhead_small  # redundancy worsens


def test_roundtrip_preserves_entities():
    entities = families(50, 4)
    attrs, rows = flatten_set_valued(
        entities, ["Name!First", "Name!Last"], "Children", "Child"
    )
    back = unflatten_to_sets(attrs, rows, ["First", "Last"], "Child", "Children")
    assert len(back) == 50
    assert all(len(e["Children"]) == 4 for e in back)


def test_bench_flatten(benchmark):
    entities = families(200, 5)
    benchmark(
        flatten_set_valued, entities, ["Name!First", "Name!Last"],
        "Children", "Child",
    )


def test_bench_unflatten(benchmark):
    entities = families(200, 5)
    attrs, rows = flatten_set_valued(
        entities, ["Name!First", "Name!Last"], "Children", "Child"
    )
    benchmark(unflatten_to_sets, attrs, rows, ["First", "Last"], "Child",
              "Children")


def main() -> None:
    robert = family(0, 3)
    attrs, rows = flatten_set_valued(
        [robert], ["Name!First", "Name!Last"], "Children", "Child"
    )
    paper = Table("E4: the flattened children relation", attrs)
    for row in rows:
        paper.add(*row)
    paper.note("the scalar columns repeat on every row")
    paper.show()

    sweep = Table(
        "E4: stored cells, STDM entity vs flattened relation",
        ["families", "children", "STDM cells", "flattened cells", "overhead"],
    )
    for children in (1, 3, 8, 20):
        entities = families(100, children)
        stdm = stdm_cells(entities)
        flat = flattened_cells(entities)
        sweep.add(100, children, stdm, flat, f"{flat / stdm:.2f}x")
    sweep.note("crossover: redundancy exceeds 2x once families have >2 children")
    sweep.show()


if __name__ == "__main__":
    main()
