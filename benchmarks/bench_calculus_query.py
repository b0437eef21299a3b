"""E2 — the section 5.1 set-calculus query, three evaluation strategies.

    {{Emp: e, Mgr: m} where (e ∈ X!Employees) and (d ∈ X!Departments)
     [(m ∈ d!Managers) and (d!Name ∈ e!Depts) and
      (e!Salary > 0.10 * d!Budget)]}

Strategies compared: the reference calculus evaluator, the translated
algebra plan (selection pushdown), and the optimized plan using a
directory on Salary.  All three must return identical rows; the shape
the paper predicts is algebra ≥ calculus and index ≫ scan as data grows.

Run the harness:   python benchmarks/bench_calculus_query.py
Run the timings:   pytest benchmarks/bench_calculus_query.py --benchmark-only
"""

import pytest

from repro.bench import Table, acme_fragment, ratio, stopwatch
from repro.core import MemoryObjectManager
from repro.directories import DirectoryManager
from repro.opal import OpalEngine
from repro.perf import stats
from repro.stdm import (
    Const,
    HashJoin,
    IndexEq,
    QueryContext,
    SetQuery,
    optimize,
    translate,
    variables,
)
from repro.stdm.algebra import collect_operators


def paper_query(employees, departments) -> SetQuery:
    e, d, m = variables("e", "d", "m")
    return SetQuery(
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
    )


def salary_query(employees, threshold: int) -> SetQuery:
    e, = variables("e")
    return SetQuery(
        result=e.path("Name!Last"),
        binders=[(e, Const(employees))],
        condition=(e.path("Salary") > threshold),
    )


@pytest.fixture(scope="module")
def dataset():
    om = MemoryObjectManager()
    employees, departments = acme_fragment(om, n_employees=300, n_departments=6)
    dm = DirectoryManager(om)
    dm.create_directory(employees, "Salary")
    return om, dm, employees, departments


def test_three_strategies_agree(dataset):
    om, dm, employees, departments = dataset
    query = paper_query(employees, departments)
    reference = query.evaluate(QueryContext(om))
    algebra = translate(query).run(QueryContext(om))
    optimized, _ = optimize(query, dm)
    assert algebra == reference
    assert sorted(map(str, optimized.run(QueryContext(om)))) == sorted(
        map(str, reference)
    )


def test_bench_calculus_reference(dataset, benchmark):
    om, _dm, employees, departments = dataset
    query = paper_query(employees, departments)
    benchmark(lambda: query.evaluate(QueryContext(om)))


def test_bench_translated_algebra(dataset, benchmark):
    om, _dm, employees, departments = dataset
    query = paper_query(employees, departments)
    benchmark(lambda: translate(query).run(QueryContext(om)))


def test_bench_salary_scan(dataset, benchmark):
    om, _dm, employees, _departments = dataset
    query = salary_query(employees, 38_000)
    benchmark(lambda: translate(query).run(QueryContext(om)))


def test_bench_salary_indexed(dataset, benchmark):
    om, dm, employees, _departments = dataset
    query = salary_query(employees, 38_000)
    plan, choices = optimize(query, dm)
    assert choices
    benchmark(lambda: plan.run(QueryContext(om)))


def literal_fragment(om):
    """The section 5.1 fragment verbatim: Sales/Research, Burns/Peters."""
    def labeled(**elements):
        obj = om.instantiate("Object")
        for name, value in elements.items():
            om.bind(obj, name, value)
        return obj

    def collection(*members):
        obj = om.instantiate("Object")
        for member in members:
            om.bind(obj, om.new_alias(), member)
        return obj

    sales = labeled(Name="Sales", Budget=142_000,
                    Managers=collection("Nathen", "Roberts"))
    research = labeled(Name="Research", Budget=256_500,
                       Managers=collection("Carter"))
    burns = labeled(Name=labeled(First="Ellen", Last="Burns"),
                    Salary=24_650, Depts=collection("Marketing"))
    peters = labeled(Name=labeled(First="Robert", Last="Peters"),
                     Salary=24_000, Depts=collection("Sales", "Planning"))
    return collection(burns, peters), collection(sales, research)


def opal_query_engine(n_employees: int) -> tuple[OpalEngine, object]:
    """An engine whose ``QueryDesk`` runs the same declarative select
    from an *installed* method — so the block's compiled AST (the memo
    anchor for translation and plan caching) persists across calls."""
    store = MemoryObjectManager()
    dm = DirectoryManager(store)
    engine = OpalEngine(store, directory_manager=dm)
    engine.execute("""
        Object subclass: #Employee instVarNames: #(name salary).
        Employee compile: 'salary ^salary'.
        Employee compile: 'salary: s salary := s'.
        Object subclass: #QueryDesk instVarNames: #(emps).
        QueryDesk compile: 'emps: c emps := c'.
        QueryDesk compile: 'hot ^emps select: [:e | e salary < 500]'
    """)
    engine.execute(f"""
        | emps e desk |
        emps := Bag new.
        1 to: {n_employees} do: [:i |
            e := Employee new.
            e salary: i * 100.
            emps add: e].
        desk := QueryDesk new.
        desk emps: emps.
        World!desk := desk.
        World!emps := emps
    """)
    emps = engine.execute("World!emps")
    dm.create_directory(emps, "salary")
    desk = engine.execute("World!desk")
    return engine, desk


def _result_key(store, selected) -> list:
    """Canonical identity of a select result, for equality checks."""
    return sorted(m.oid for m in store.members_of(selected, None))


def declarative_cache_ablation(n_employees: int, repeat: int) -> dict:
    """Repeated declarative selects, caches on vs off.

    Uncached, every call re-runs the block recognizer (which scans the
    class dictionaries), rebuilds the calculus query and re-plans it;
    cached, the compiled block's memo answers and only the (indexed)
    plan executes.  The two modes must return byte-identical results.
    """
    engine, desk = opal_query_engine(n_employees)
    perf = engine.store.perf

    def run_select():
        return engine.send(desk, "hot")

    perf.enabled = False
    uncached = stopwatch(run_select, repeat)

    perf.enabled = True
    perf.reset_stats()
    run_select()  # prime the translation and plan memos
    cached = stopwatch(run_select, repeat)

    store = engine.store
    assert _result_key(store, cached.result) == _result_key(store, uncached.result)
    speedup = (
        uncached.seconds / cached.seconds if cached.seconds else float("inf")
    )
    return {
        "n_employees": n_employees,
        "uncached_seconds": uncached.seconds,
        "cached_seconds": cached.seconds,
        "queries_per_sec_cached": 1.0 / cached.seconds,
        "queries_per_sec_uncached": 1.0 / uncached.seconds,
        "speedup": speedup,
        "results_identical": True,
        "perf": stats(engine),
    }


def test_declarative_cache_results_identical():
    report = declarative_cache_ablation(n_employees=60, repeat=2)
    assert report["results_identical"]


def company_fragment(om, n_employees: int, n_departments: int):
    """Employees with a scalar DeptName foreign key, for join shapes."""
    departments = om.instantiate("Object")
    names = [f"Dept{i}" for i in range(n_departments)]
    for i, name in enumerate(names):
        dept = om.instantiate("Object", Name=name, Budget=(i + 1) * 10_000)
        om.bind(departments, om.new_alias(), dept)
    employees = om.instantiate("Object")
    for i in range(n_employees):
        emp = om.instantiate(
            "Object", Salary=i * 100, DeptName=names[i % n_departments]
        )
        om.bind(employees, om.new_alias(), emp)
    return employees, departments


def join_query(employees, departments) -> SetQuery:
    d, e = variables("d", "e")
    return SetQuery(
        result={"pay": e.path("Salary"), "budget": d.path("Budget")},
        binders=[(d, Const(departments)), (e, Const(employees))],
        condition=e.path("DeptName").eq(d.path("Name")),
    )


def join_mode_ablation(n_employees: int, n_departments: int,
                       repeat: int = 3) -> dict:
    """Nested scan vs HashJoin vs directory-driven index nested-loop.

    The unfused plan enumerates the full cross product; the fused plans
    must emit only matches (sub-quadratic ``rows_out``) and identical
    result sets.
    """
    om = MemoryObjectManager()
    employees, departments = company_fragment(om, n_employees, n_departments)
    dm = DirectoryManager(om)
    dm.create_directory(employees, "DeptName")
    query = join_query(employees, departments)

    def canon(rows):
        return sorted(map(repr, rows))

    # nested: the straight translation, no join fusion
    nested = stopwatch(lambda: translate(query).run(QueryContext(om)), repeat)

    # hash: fusion without a directory
    hash_plan, _ = optimize(query, None)
    operators = collect_operators(hash_plan)
    assert any(isinstance(op, HashJoin) for op in operators)
    hashed = stopwatch(
        lambda: optimize(query, None)[0].run(QueryContext(om)), repeat
    )

    # index nested-loop: the directory on DeptName covers the join key
    index_plan, _ = optimize(query, dm)
    operators = collect_operators(index_plan)
    assert any(isinstance(op, IndexEq) for op in operators)
    assert not any(isinstance(op, HashJoin) for op in operators)
    indexed = stopwatch(
        lambda: optimize(query, dm)[0].run(QueryContext(om, None, dm)), repeat
    )

    reference = canon(nested.result)
    assert canon(hashed.result) == reference
    assert canon(indexed.result) == reference

    # sub-quadratic: the fused operators never touch the cross product
    hash_plan, _ = optimize(query, None)
    results = hash_plan.run(QueryContext(om))
    join_op = next(
        op for op in collect_operators(hash_plan) if isinstance(op, HashJoin)
    )
    assert join_op.rows_out == len(results) < n_employees * n_departments
    assert f"[rows_out={join_op.rows_out}]" in hash_plan.explain()

    return {
        "name": "join executor: nested scan vs hash vs index nested-loop",
        "n_employees": n_employees,
        "n_departments": n_departments,
        "rows_returned": len(results),
        "join_rows_out": join_op.rows_out,
        "cross_product": n_employees * n_departments,
        "nested_seconds": nested.seconds,
        "hash_seconds": hashed.seconds,
        "index_seconds": indexed.seconds,
        "hash_speedup": nested.seconds / hashed.seconds,
        "index_speedup": nested.seconds / indexed.seconds,
        "results_identical": True,
    }


def test_join_mode_ablation_identical():
    report = join_mode_ablation(n_employees=300, n_departments=6, repeat=2)
    assert report["results_identical"]
    assert report["join_rows_out"] < report["cross_product"]


def main(argv=None) -> dict:
    smoke = argv is not None and "--smoke" in argv
    # the exact section 5.1 instance first
    om = MemoryObjectManager()
    employees, departments = literal_fragment(om)
    rows = paper_query(employees, departments).evaluate(QueryContext(om))
    sample = Table("E2: the paper's query on the section 5.1 fragment",
                   ["Emp", "Mgr"])
    for row in rows:
        sample.add(row["Emp"], row["Mgr"])
    sample.note("employees in a manager's department earning > 10% of budget")
    sample.show()

    sweep = Table(
        "E2: strategy sweep (ms, best of 3)",
        ["employees", "calculus", "algebra", "index plan", "scan/index"],
    )
    for n in (50, 200, 800):
        om = MemoryObjectManager()
        employees, departments = acme_fragment(om, n, 6)
        dm = DirectoryManager(om)
        dm.create_directory(employees, "Salary")
        query = salary_query(employees, 38_000)
        calculus = stopwatch(lambda: query.evaluate(QueryContext(om)), 3)
        algebra = stopwatch(lambda: translate(query).run(QueryContext(om)), 3)
        plan, _ = optimize(query, dm)
        indexed = stopwatch(lambda: plan.run(QueryContext(om)), 3)
        sweep.add(n, calculus.millis, algebra.millis, indexed.millis,
                  ratio(algebra.seconds, indexed.seconds))
    sweep.note("who wins: the directory plan, by a growing factor")
    sweep.show()

    # join fusion: nested scan vs HashJoin vs index nested-loop
    join_ablation = join_mode_ablation(
        n_employees=300 if smoke else 2_000,
        n_departments=6 if smoke else 20,
        repeat=3,
    )
    join_table = Table(
        "E2: join fusion ablation (equality join, three executors)",
        ["plan", "per query (ms)", "vs nested scan"],
    )
    join_table.add("nested scan (cross product)",
                   join_ablation["nested_seconds"] * 1e3, "1.0x")
    join_table.add("HashJoin", join_ablation["hash_seconds"] * 1e3,
                   ratio(join_ablation["nested_seconds"],
                         join_ablation["hash_seconds"]))
    join_table.add("index nested-loop (directory)",
                   join_ablation["index_seconds"] * 1e3,
                   ratio(join_ablation["nested_seconds"],
                         join_ablation["index_seconds"]))
    join_table.note(
        f"join emits {join_ablation['join_rows_out']} rows vs a "
        f"{join_ablation['cross_product']}-pair cross product; "
        "explain() records fused rows_out"
    )
    join_table.show()

    # repeated declarative selects: translation + plan memoization
    ablation = declarative_cache_ablation(
        n_employees=60 if smoke else 300, repeat=10 if smoke else 50
    )
    cache_table = Table(
        "E2: repeated declarative select, caches on vs off",
        ["mode", "per query (ms)", "queries/sec", "vs uncached"],
    )
    cache_table.add("uncached (re-translate + re-plan)",
                    ablation["uncached_seconds"] * 1e3,
                    ablation["queries_per_sec_uncached"], "1.0x")
    cache_table.add("cached (block memo + plan memo)",
                    ablation["cached_seconds"] * 1e3,
                    ablation["queries_per_sec_cached"],
                    ratio(ablation["uncached_seconds"],
                          ablation["cached_seconds"]))
    perf = ablation["perf"]
    cache_table.note(
        f"translation hit rate {perf['translation_cache']['hit_rate']:.3f}, "
        f"plan hit rate {perf['plan_cache']['hit_rate']:.3f}; "
        "results byte-identical across modes"
    )
    cache_table.show()

    return {
        "ablations": [
            {
                "name": "repeated declarative select (indexed, installed method)",
                "uncached_seconds": ablation["uncached_seconds"],
                "cached_seconds": ablation["cached_seconds"],
                "speedup": ablation["speedup"],
            },
            {
                "name": "join fusion: nested scan vs HashJoin",
                "nested_seconds": join_ablation["nested_seconds"],
                "hash_seconds": join_ablation["hash_seconds"],
                "speedup": join_ablation["hash_speedup"],
            },
            {
                "name": "join fusion: nested scan vs index nested-loop",
                "nested_seconds": join_ablation["nested_seconds"],
                "index_seconds": join_ablation["index_seconds"],
                "speedup": join_ablation["index_speedup"],
            },
        ],
        "join_fusion": join_ablation,
        "queries_per_sec_cached": ablation["queries_per_sec_cached"],
        "queries_per_sec_uncached": ablation["queries_per_sec_uncached"],
        "results_identical": ablation["results_identical"],
        "perf": perf,
    }


if __name__ == "__main__":
    main()
