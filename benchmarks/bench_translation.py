"""E13 — calculus→algebra translation and the optimizer's latitude.

Section 5.1: "We have developed a set algebra, and an algorithm to
translate a set-calculus expression to a set-algebra expression."
Section 4.3: declarative semantics "allows more flexibility in
evaluating queries ... needed to support reasonable optimization."

The harness translates a query suite, prints each plan with and without
directories (the optimizer's choices visible), and benchmarks the
translation itself and the resulting plans.

Run the harness:   python benchmarks/bench_translation.py
Run the timings:   pytest benchmarks/bench_translation.py --benchmark-only
"""

import pytest

from repro.core import MemoryObjectManager
from repro.directories import DirectoryManager
from repro.stdm import (
    BindScan,
    Const,
    Filter,
    IndexEq,
    IndexRange,
    QueryContext,
    SetQuery,
    optimize,
    translate,
    variables,
)
from repro.stdm.algebra import collect_operators

from workloads import acme_fragment


def query_suite(employees, departments):
    e, d, m = variables("e", "d", "m")
    return {
        "select by salary": SetQuery(
            result=e,
            binders=[(e, Const(employees))],
            condition=(e.path("Salary") > 30_000),
        ),
        "point lookup": SetQuery(
            result=e.path("Name!Last"),
            binders=[(e, Const(employees))],
            condition=e.path("Salary").eq(24_000),
        ),
        "dependent join": SetQuery(
            result={"mgr": m, "dept": d.path("Name")},
            binders=[(d, Const(departments)), (m, d.path("Managers"))],
        ),
        "the paper's query": SetQuery(
            result={"Emp": e.path("Name!Last"), "Mgr": m},
            binders=[
                (e, Const(employees)),
                (d, Const(departments)),
                (m, d.path("Managers")),
            ],
            condition=(
                d.path("Name").in_(e.path("Depts"))
                & (e.path("Salary") > Const(0.10) * d.path("Budget"))
            ),
        ),
    }


@pytest.fixture(scope="module")
def setup():
    om = MemoryObjectManager()
    employees, departments = acme_fragment(om, 400, 8)
    dm = DirectoryManager(om)
    dm.create_directory(employees, "Salary")
    return om, dm, employees, departments


def test_all_queries_translate_and_agree(setup):
    om, dm, employees, departments = setup
    for name, query in query_suite(employees, departments).items():
        reference = query.evaluate(QueryContext(om))
        translated = translate(query).run(QueryContext(om))
        optimized, _ = optimize(query, dm)
        assert translated == reference, name
        assert sorted(map(str, optimized.run(QueryContext(om)))) == sorted(
            map(str, reference)
        ), name


def test_optimizer_picks_indexes_exactly_where_legal(setup):
    om, dm, employees, departments = setup
    suite = query_suite(employees, departments)
    _, choices = optimize(suite["select by salary"], dm)
    assert [c.kind for c in choices] == ["range"]
    _, choices = optimize(suite["point lookup"], dm)
    assert [c.kind for c in choices] == ["eq"]
    _, choices = optimize(suite["dependent join"], dm)
    assert choices == []  # dependent binder: no single directory applies


def test_plans_have_expected_operators(setup):
    om, dm, employees, departments = setup
    suite = query_suite(employees, departments)
    scan_plan = translate(suite["select by salary"])
    assert any(isinstance(op, Filter) for op in collect_operators(scan_plan))
    assert any(isinstance(op, BindScan) for op in collect_operators(scan_plan))
    indexed_plan, _ = optimize(suite["select by salary"], dm)
    assert any(isinstance(op, IndexRange)
               for op in collect_operators(indexed_plan))
    point_plan, _ = optimize(suite["point lookup"], dm)
    assert any(isinstance(op, IndexEq) for op in collect_operators(point_plan))


def test_bench_translation_itself(setup, benchmark):
    om, _dm, employees, departments = setup
    suite = query_suite(employees, departments)

    def translate_all():
        return [translate(q) for q in suite.values()]

    assert len(benchmark(translate_all)) == 4


def test_bench_optimization_itself(setup, benchmark):
    om, dm, employees, departments = setup
    suite = query_suite(employees, departments)
    benchmark(lambda: [optimize(q, dm) for q in suite.values()])


def test_bench_paper_query_optimized(setup, benchmark):
    om, dm, employees, departments = setup
    query = query_suite(employees, departments)["the paper's query"]
    plan, _ = optimize(query, dm)
    benchmark(lambda: plan.run(QueryContext(om)))


def main() -> None:
    om = MemoryObjectManager()
    employees, departments = acme_fragment(om, 50, 4)
    dm = DirectoryManager(om)
    dm.create_directory(employees, "Salary")
    for name, query in query_suite(employees, departments).items():
        print(f"\nE13 ── {name}")
        print(f"  calculus: {query!r}")
        scan = translate(query)
        scan.run(QueryContext(om))
        print("  naive translation:")
        for line in scan.explain().splitlines():
            print(f"    {line}")
        optimized, choices = optimize(query, dm)
        optimized.run(QueryContext(om))
        print(f"  optimized ({len(choices)} index choice(s)):")
        for line in optimized.explain().splitlines():
            print(f"    {line}")
    print()


if __name__ == "__main__":
    main()
