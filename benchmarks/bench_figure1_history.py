"""E1 — Figure 1: "A Database with History".

Regenerates the figure's content from the database (every element's
association table, with transaction times), runs the paper's three path
queries, and benchmarks temporal path resolution.

Run the harness:   python benchmarks/bench_figure1_history.py
Run the timings:   pytest benchmarks/bench_figure1_history.py --benchmark-only
"""

import pytest

from repro import GemStone

from harness import Table
from workloads import figure1_database


@pytest.fixture(scope="module")
def figure1():
    db = GemStone.create()
    session = figure1_database(db)
    return db, session


def regenerate_figure(session) -> Table:
    """The figure's boxes: each element with its timed associations."""
    table = Table("Figure 1 regenerated: elements and their associations",
                  ["object", "element", "time", "value"])
    world = session.world
    acme = session.resolve("'Acme Corp'")
    milton = session.resolve("milton")
    ayn = session.session.deref(acme.value_at(1821, 7))

    def rows(label, obj):
        for name, assoc_table in obj.elements.items():
            for time, value in assoc_table.history():
                shown = session.display(session.session.deref(value))
                if len(shown) > 30:
                    shown = shown[:27] + "..."
                table.add(label, name, time, shown)

    rows("World", world)
    rows("Acme Corp", acme)
    rows("Ayn (emp 1821)", ayn)
    rows("Milton", milton)
    return table


QUERIES = [
    ("World!'Acme Corp'!president!name", "Milton Friedman"),
    ("World!'Acme Corp'!president @ 10 !name", "Milton Friedman"),
    ("World!'Acme Corp'!president @ 7 !name", "Ayn Rand"),
    ("World!'Acme Corp'!president @ 7 !city", "San Diego"),
    ("World!'Acme Corp'!1821 @ 7 !name", "Ayn Rand"),
]


def test_figure1_queries_match_paper(figure1):
    _db, session = figure1
    for source, expected in QUERIES:
        assert session.execute(source) == expected


def test_departed_employee_is_nil_now(figure1):
    _db, session = figure1
    assert session.execute("World!'Acme Corp'!1821") is None


def test_bench_current_path(figure1, benchmark):
    _db, session = figure1
    result = benchmark(session.execute, "World!'Acme Corp'!president!name")
    assert result == "Milton Friedman"


def test_bench_past_path(figure1, benchmark):
    _db, session = figure1
    result = benchmark(session.execute, "World!'Acme Corp'!president @ 7 !city")
    assert result == "San Diego"


def test_bench_time_dial_navigation(figure1, benchmark):
    _db, session = figure1

    def dialed():
        session.execute("System timeDial: 7")
        name = session.execute("World!'Acme Corp'!president!name")
        session.execute("System timeDial: nil")
        return name

    assert benchmark(dialed) == "Ayn Rand"


def main() -> None:
    db = GemStone.create()
    session = figure1_database(db)
    regenerate_figure(session).show()

    queries = Table("The paper's queries", ["path expression", "answer"])
    for source, expected in QUERIES:
        answer = session.execute(source)
        assert answer == expected, (source, answer, expected)
        queries.add(source, answer)
    queries.show()


if __name__ == "__main__":
    main()
