"""E3 — relations as STDM sets (section 5.2's {T1:…, T2:…} example).

Regenerates the paper's relation/set pair exactly, checks the round trip
at scale, and benchmarks both encoding directions.

Run the harness:   python benchmarks/bench_relation_encoding.py
Run the timings:   pytest benchmarks/bench_relation_encoding.py --benchmark-only
"""

import pytest

from repro.stdm import format_set, relation_to_set, set_to_relation

from harness import Table

PAPER_ATTRS = ["A", "B", "C"]
PAPER_ROWS = [(1, 3, 4), (1, 5, 4)]


def big_relation(n: int):
    return ["A", "B", "C", "D"], [
        (i, i % 7, f"v{i % 13}", float(i)) for i in range(n)
    ]


def test_paper_pair_matches():
    encoded = relation_to_set(PAPER_ATTRS, PAPER_ROWS)
    assert format_set(encoded) == (
        "{T1: {A: 1, B: 3, C: 4}, T2: {A: 1, B: 5, C: 4}}"
    )


def test_roundtrip_at_scale():
    attrs, rows = big_relation(2000)
    back_attrs, back_rows = set_to_relation(relation_to_set(attrs, rows))
    assert back_attrs == attrs
    assert back_rows == rows


def test_bench_encode(benchmark):
    attrs, rows = big_relation(2000)
    benchmark(relation_to_set, attrs, rows)


def test_bench_decode(benchmark):
    attrs, rows = big_relation(2000)
    encoded = relation_to_set(attrs, rows)
    benchmark(set_to_relation, encoded)


def main() -> None:
    table = Table("E3: the paper's relation", PAPER_ATTRS)
    for row in PAPER_ROWS:
        table.add(*row)
    table.show()
    print("as an STDM set:")
    print(" ", format_set(relation_to_set(PAPER_ATTRS, PAPER_ROWS)))
    print()

    sizes = Table("E3: round-trip sizes", ["tuples", "set elements", "ok"])
    for n in (10, 1000, 10000):
        attrs, rows = big_relation(n)
        encoded = relation_to_set(attrs, rows)
        back = set_to_relation(encoded)
        sizes.add(n, len(encoded), back == (attrs, rows))
    sizes.show()


if __name__ == "__main__":
    main()
