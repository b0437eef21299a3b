"""The batch executor: results, accounting, and the stores it runs on.

There is one executor, and a plan's answer is what the nested-loop
reference :meth:`SetQuery.evaluate` says on the same store.  Its row
counters, ``explain()`` and fuel are the numbers the fixture implies:
an operator emits the members that pass every predicate at or below it,
and a plan is charged one unit per member it draws.
"""

from functools import reduce

import pytest

from repro.concurrency import SessionObjectManager, TransactionManager
from repro.core import GemObject, MemoryObjectManager
from repro.directories import DirectoryManager
from repro.storage import DiskGeometry, SimulatedDisk, StableStore
from repro.stdm import (
    BindingBatch,
    BindScan,
    Const,
    ConstructResult,
    Filter,
    IndexRange,
    QueryContext,
    SetQuery,
    Unit,
    deduplicate,
    difference,
    intersection,
    optimize,
    translate,
    union,
    variables,
)
from repro.stdm.algebra import DEFAULT_BATCH_SIZE, collect_operators
from repro.stdm.calculus import And
from repro.stdm.sets import LabeledSet


def plan_and_reference(query, om):
    """*query* through a fresh plan, and through the reference."""
    return translate(query).run(QueryContext(om)), query.evaluate(QueryContext(om))


def big_collection(om, count, *, every=1):
    """``count`` employees; every ``every``-th one gets a Bonus element."""
    employees = om.instantiate("Object")
    for i in range(count):
        emp = om.instantiate("Object", Salary=i * 10, Rank=i % 7)
        if i % every == 0:
            om.bind(emp, "Bonus", i)
        om.bind(employees, om.new_alias(), emp)
    return employees


class TestEquivalence:
    def test_paper_query_identical(self, acme):
        e, d, m = variables("e", "d", "m")
        query = SetQuery(
            result={"Emp": e.path("Name!Last"), "Mgr": m},
            binders=[
                (e, Const(acme.employees)),
                (d, Const(acme.departments)),
                (m, d.path("Managers")),
            ],
            condition=(
                d.path("Name").in_(e.path("Depts"))
                & (e.path("Salary") > Const(0.10) * d.path("Budget"))
            ),
        )
        plan, reference = plan_and_reference(query, acme.om)
        assert plan == reference == [
            {"Emp": "Peters", "Mgr": "Nathen"},
            {"Emp": "Peters", "Mgr": "Roberts"},
            {"Emp": "Earner", "Mgr": "Carter"},
        ]

    def test_missing_elements_yield_novalue_in_batches(self, acme):
        om = MemoryObjectManager()
        employees = big_collection(om, 40, every=3)
        e, = variables("e")
        query = SetQuery(
            result=e.path("Salary"),
            binders=[(e, Const(employees))],
            condition=(e.path("Bonus") > 30),  # NOVALUE on 2/3 of rows
        )
        plan, reference = plan_and_reference(query, om)
        assert plan == reference == [330, 360, 390]

    def test_multiple_batches(self):
        om = MemoryObjectManager()
        employees = big_collection(om, DEFAULT_BATCH_SIZE + 40)
        e, = variables("e")
        query = SetQuery(
            result=e.path("Salary"),
            binders=[(e, Const(employees))],
            condition=(e.path("Rank").eq(3)),
        )
        plan, reference = plan_and_reference(query, om)
        assert plan == reference
        assert len(plan) == (DEFAULT_BATCH_SIZE + 40 + 3) // 7

    def test_boolean_connectives_preserve_semantics(self):
        om = MemoryObjectManager()
        employees = big_collection(om, 50, every=4)
        e, = variables("e")
        query = SetQuery(
            result=e.path("Salary"),
            binders=[(e, Const(employees))],
            condition=(
                ((e.path("Rank") > 2) & (e.path("Bonus") > 8))
                | e.path("Salary").eq(0)
            ),
        )
        plan, reference = plan_and_reference(query, om)
        assert plan == reference
        assert plan[0] == 0 and len(plan) == 1 + sum(
            1 for i in range(12, 50, 4) if i % 7 > 2
        )

    def test_dict_results_batched(self, acme):
        e, = variables("e")
        query = SetQuery(
            result={"last": e.path("Name!Last"), "pay": e.path("Salary")},
            binders=[(e, Const(acme.employees))],
        )
        plan, reference = plan_and_reference(query, acme.om)
        assert plan == reference
        assert [row["last"] for row in plan] == ["Burns", "Peters", "Earner"]


class TestAccounting:
    def test_rows_out_identical_across_modes(self, acme):
        e, d = variables("e", "d")
        query = SetQuery(
            result=e.path("Name!Last"),
            binders=[(e, Const(acme.employees)), (d, Const(acme.departments))],
            condition=(e.path("Salary") > 24000) & (d.path("Budget") > 0),
        )
        plan = translate(query)
        plan.run(QueryContext(acme.om))
        staff = acme.om.members_of(acme.employees)
        rich = sum(1 for emp in staff if acme.om.value_at(emp, "Salary") > 24000)
        departments = len(acme.om.members_of(acme.departments))
        # root first: Construct, Filter d, BindScan d, Filter e, BindScan e, Unit
        assert [op.rows_out for op in collect_operators(plan)] == [
            rich * departments, rich * departments, rich * departments,
            rich, len(staff), 1,
        ] == [4, 4, 4, 2, 3, 1]
        assert plan.explain().splitlines()[-1] == "          Unit  [rows_out=1]"

    def test_fuel_charges_identical_across_modes(self):
        om = MemoryObjectManager()
        employees = big_collection(om, 30, every=2)
        e, d = variables("e", "d")
        departments = big_collection(om, 5)
        query = SetQuery(
            result=e.path("Salary"),
            binders=[(e, Const(employees)), (d, Const(departments))],
            condition=(e.path("Rank") > d.path("Rank")),
        )
        plan_ctx = QueryContext(om)
        translate(query).run(plan_ctx)
        reference_ctx = QueryContext(om)
        query.evaluate(reference_ctx)
        # every employee drawn once, every department once per employee
        assert plan_ctx.examined == reference_ctx.examined == 30 + 30 * 5

    def test_index_scan_batched_matches_row(self, acme):
        om = MemoryObjectManager()
        employees = big_collection(om, 60)
        dm = DirectoryManager(om)
        dm.create_directory(employees, "Salary")
        e, = variables("e")
        query = SetQuery(
            result=e.path("Salary"),
            binders=[(e, Const(employees))],
            condition=(e.path("Salary") > 400),
        )
        plan, _ = optimize(query, dm)
        ctx = QueryContext(om, None, dm)
        rows = plan.run(ctx)
        assert sorted(rows) == sorted(query.evaluate(QueryContext(om)))
        assert plan.rows_out == ctx.examined == len(rows) == 60 - 41


def _memory_store():
    om = MemoryObjectManager()
    return om, om


def _clean_session():
    stable = StableStore.format(
        SimulatedDisk(DiskGeometry(track_count=4096, track_size=1024))
    )
    return SessionObjectManager(stable, TransactionManager(stable)), stable


STORES = {
    "memory": _memory_store,
    "clean_session": _clean_session,
    "dirty_session": _clean_session,
}


@pytest.fixture(params=STORES)
def company(request):
    """(store, index store, employees, kind) — the same data on each store.

    A session's copy is committed (the directory indexes committed
    state); the dirty one then rewrites members, and the collection, in
    its workspace without committing.
    """
    om, indexed = STORES[request.param]()
    depts = [om.instantiate("Object", Name=f"d{i}", Floor=i) for i in range(4)]
    employees = big_collection(om, DEFAULT_BATCH_SIZE + 90, every=3)
    for i, emp in enumerate(om.members_of(employees)):
        om.bind(emp, "Dept", depts[i % 5] if i % 5 < 4 else i)  # a dead-end path
    if om is not indexed:
        om.commit()
    if request.param == "dirty_session":
        members = om.members_of(employees)
        for emp in members[::17]:
            om.bind(emp, "Salary", 1_000_000)
            om.bind(emp, "Rank", None)
        om.bind(employees, om.new_alias(), om.instantiate("Object", Salary=405, Rank=3))
        om.unbind(employees, next(iter(om.object(employees.oid).elements)))
    return om, indexed, om.object(employees.oid), request.param


def _plain(rows):
    return [row.oid if isinstance(row, GemObject) else row for row in rows]


def expected_explain(plan, probed, count_where):
    """(rows_out per operator root first, the ``explain()`` text) the
    reference implies: each operator emits the members that pass every
    predicate at or below it — ``count_where(predicates)``; a probe's
    predicates are the conjuncts it was *probed* for."""
    predicates: list = []
    counts = []
    for op in reversed(collect_operators(plan)):  # Unit first
        if isinstance(op, Unit):
            counts.append(1)
            continue
        if isinstance(op, IndexRange):
            predicates.extend(probed)
        elif isinstance(op, Filter):
            predicates.append(op.predicate)
        else:
            assert isinstance(op, (BindScan, ConstructResult))
        counts.append(count_where(predicates))
    counts.reverse()
    lines = [
        "  " * depth + f"{op.describe()}  [rows_out={count}]"
        for depth, (op, count) in enumerate(zip(collect_operators(plan), counts))
    ]
    return counts, "\n".join(lines)


class TestAcrossStores:
    """A plan answers what the reference answers on every store it can
    run against — the memory store, and a session (clean, or reading its
    own writes) over the shared stable store, whose bulk hooks are its
    own — with the counters and fuel that answer implies."""

    def queries(self, employees):
        e, = variables("e")
        binders = [(e, Const(employees))]
        return {
            "scan": SetQuery(
                result=e, binders=binders,
                condition=(e.path("Rank").eq(3)) | (e.path("Salary") > 10_000),
            ),
            "missing": SetQuery(
                result=e.path("Salary"), binders=binders,
                condition=(e.path("Bonus") > 30),
            ),
            "two_steps": SetQuery(
                result={"dept": e.path("Dept!Name"), "pay": e.path("Salary")},
                binders=binders, condition=(e.path("Dept!Floor") > 1),
            ),
            "range": SetQuery(
                result=e, binders=binders,
                condition=(e.path("Salary") > 400) & (e.path("Salary") < 900),
            ),
        }

    @pytest.mark.parametrize("name", ("scan", "missing", "two_steps", "range"))
    @pytest.mark.parametrize("indexed", (False, True))
    def test_rows_counters_explain_and_fuel(self, company, name, indexed):
        om, index_store, employees, kind = company
        dm = DirectoryManager(index_store)
        if indexed:
            dm.create_directory(index_store.object(employees.oid), "Salary")
        query = self.queries(employees)[name]
        plan, choices = optimize(query, dm)
        ctx = QueryContext(om, None, dm)
        rows = plan.run(ctx)
        truth = om
        if kind == "dirty_session" and indexed and name == "range":
            # a directory indexes committed state: a probe answers what a
            # session with no writes of its own reads
            truth = SessionObjectManager(index_store, om.transaction_manager)
        truth_query = self.queries(truth.object(employees.oid))[name]
        assert _plain(rows) == _plain(truth_query.evaluate(QueryContext(truth)))

        def count_where(predicates):
            condition = reduce(And, predicates) if predicates else None
            counted = SetQuery(result=truth_query.result,
                               binders=truth_query.binders, condition=condition)
            return len(counted.evaluate(QueryContext(truth)))

        probed = choices[0].conjuncts if choices else ()
        counts, explain = expected_explain(plan, probed, count_where)
        assert [op.rows_out for op in collect_operators(plan)] == counts
        assert plan.explain() == explain
        # a scan draws every member; a probe, only the bracket's
        drawn = counts[-2]
        assert ctx.examined == drawn > 0 and rows
        assert (indexed and name == "range") == any(
            isinstance(op, IndexRange) for op in collect_operators(plan)
        )

    def test_a_session_keeps_its_access_records_in_either_mode(self, company):
        om, _, employees, _kind = company
        if isinstance(om, MemoryObjectManager):
            pytest.skip("the memory store records nothing")
        query = self.queries(employees)["two_steps"]
        records = {}
        for how, run in (
            ("plan", lambda: translate(query).run(QueryContext(om))),
            ("reference", lambda: query.evaluate(QueryContext(om))),
        ):
            om.reads.clear()
            om.enum_reads.clear()
            run()
            records[how] = (om.read_pairs(), set(om.enum_reads))
        assert records["plan"] == records["reference"]
        assert records["plan"][0] and employees.oid in records["plan"][1]


class TestDrawing:
    """Every binding operator draws through one loop, which reuses the
    previous row's members while the key repeats; a scan's key repeats
    only when its collection is the very same object."""

    def test_a_repeated_collection_is_drawn_once_per_run(self, monkeypatch):
        om, _stable = _clean_session()
        staff = [
            om.instantiate("Object", Name=name, Salary=salary)
            for name, salary in (("ann", 10), ("bob", 20), ("cy", 30))
        ]
        crews = [om.instantiate("Object"), om.instantiate("Object")]
        om.bind(crews[0], om.new_alias(), staff[0])
        om.bind(crews[0], om.new_alias(), staff[1])
        om.bind(crews[1], om.new_alias(), staff[2])
        departments = om.instantiate("Object")
        for crew in (0, 0, 0, 1, 1, 0):  # three runs of one crew object
            om.bind(departments, om.new_alias(),
                    om.instantiate("Object", Crew=crews[crew]))
        om.commit()
        d, e = variables("d", "e")
        query = SetQuery(
            result={"who": e.path("Name"), "pay": e.path("Salary")},
            binders=[(d, Const(om.object(departments.oid))), (e, d.path("Crew"))],
        )
        drawn = []
        members_of = om.members_of

        def counted(target, time=None):
            drawn.append(target.oid)
            return members_of(target, time)

        monkeypatch.setattr(om, "members_of", counted)
        records, calls = {}, {}
        for how, run in (("plan", lambda ctx: translate(query).run(ctx)),
                         ("reference", query.evaluate)):
            om.reads.clear()
            om.enum_reads.clear()
            drawn.clear()
            ctx = QueryContext(om)
            rows = sorted(run(ctx), key=lambda row: row["who"])
            records[how] = (rows, ctx.examined, om.read_pairs(), set(om.enum_reads))
            calls[how] = list(drawn)
        assert records["plan"] == records["reference"]
        assert records["plan"][1] == 6 + 2 + 2 + 2 + 1 + 1 + 2  # d, then each crew
        # the reference asks the store for every row's crew; the plan,
        # once for each run of one crew object
        runs = {how: [departments.oid, *[crews[c].oid for c in crew]]
                for how, crew in (("reference", (0, 0, 0, 1, 1, 0)),
                                  ("plan", (0, 1, 0)))}
        assert calls == runs

    @pytest.mark.parametrize("kind", ("labeled", "python"))
    def test_equal_sets_each_draw_in_their_own_order(self, kind):
        if kind == "labeled":
            first, second = LabeledSet({"a": 1, "b": 9}), LabeledSet({"b": 9, "a": 1})
            orders = first.values() + second.values()
        else:
            first, second = set(), set()
            first.add(1), first.add(9), second.add(9), second.add(1)
            orders = list(first) + list(second)
        assert first == second and orders == [1, 9, 9, 1]
        s, m = variables("s", "m")
        query = SetQuery(result=m, binders=[(s, Const([first, second])), (m, s)])
        plan, reference = plan_and_reference(query, MemoryObjectManager())
        assert plan == reference == [1, 9, 9, 1]


class TestBindingBatch:
    def test_round_trip_rows(self):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        batch = BindingBatch({"a": [1, 2], "b": ["x", "y"]}, 2)
        assert batch.size == 2
        assert batch.rows() == rows
        assert BindingBatch({}, 2).rows() == [{}, {}]

    def test_select_projects_columns(self):
        batch = BindingBatch({"a": list(range(6))}, 6).select_mask(
            [False, True, False, False, True, False], 2
        )
        assert batch.rows() == [{"a": 1}, {"a": 4}]


class TestHashedSetOps:
    def test_large_union_identity_semantics(self):
        om = MemoryObjectManager()
        objs = [om.instantiate("Object") for _ in range(500)]
        merged = union(objs, objs[250:] + objs[:10])
        assert merged == objs

    def test_intersection_and_difference_scale(self):
        left = list(range(1000))
        assert intersection(left, list(range(500, 1500))) == list(
            range(500, 1000)
        )
        assert difference(left, list(range(500))) == list(range(500, 1000))

    def test_unhashable_members_still_dedupe(self):
        assert union([[1], [2]], [[1], [3]]) == [[1], [2], [3]]
        assert deduplicate([[1], [1], [2]]) == [[1], [2]]
        assert intersection([[1], [2]], [[2], [3]]) == [[2]]
        assert difference([[1], [2]], [[2]]) == [[1]]

    def test_mixed_hashable_and_not(self):
        assert union([1, [2]], [[2], 1, 3]) == [1, [2], 3]
