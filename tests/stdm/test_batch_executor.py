"""The batched columnar executor: equivalence, accounting, and modes.

Every plan must produce byte-identical results under ``mode="row"`` and
``mode="vectorized"``, with identical ``rows_out`` counters, identical
``explain()`` output shapes, and identical fuel charges — batching is an
execution strategy, never a semantics change.
"""

import pytest

from repro.concurrency import SessionObjectManager, TransactionManager
from repro.core import GemObject, MemoryObjectManager
from repro.directories import DirectoryManager
from repro.storage import DiskGeometry, SimulatedDisk, StableStore
from repro.stdm import (
    BindingBatch,
    Const,
    QueryContext,
    SetQuery,
    deduplicate,
    difference,
    executor_mode,
    intersection,
    optimize,
    set_executor_mode,
    translate,
    union,
    variables,
)
from repro.stdm.algebra import DEFAULT_BATCH_SIZE, collect_operators


def run_modes(query, om, dm=None, time=None):
    """The same query through fresh plans in both executor modes."""
    row = translate(query).run(QueryContext(om, time, dm), mode="row")
    vec = translate(query).run(QueryContext(om, time, dm), mode="vectorized")
    return row, vec


def big_collection(om, count, *, every=1):
    """``count`` employees; every ``every``-th one gets a Bonus element."""
    employees = om.instantiate("Object")
    for i in range(count):
        emp = om.instantiate("Object", Salary=i * 10, Rank=i % 7)
        if i % every == 0:
            om.bind(emp, "Bonus", i)
        om.bind(employees, om.new_alias(), emp)
    return employees


class TestModeSwitch:
    def test_default_is_vectorized(self):
        assert executor_mode() == "vectorized"

    def test_set_returns_previous_and_restores(self):
        previous = set_executor_mode("row")
        try:
            assert previous == "vectorized"
            assert executor_mode() == "row"
        finally:
            set_executor_mode(previous)
        assert executor_mode() == "vectorized"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            set_executor_mode("simd")
        with pytest.raises(ValueError):
            e, = variables("e")
            q = SetQuery(result=e, binders=[(e, Const([1]))])
            translate(q).run(QueryContext(MemoryObjectManager()), mode="gpu")

    def test_global_mode_drives_run(self, acme):
        e, = variables("e")
        query = SetQuery(
            result=e.path("Name!Last"), binders=[(e, Const(acme.employees))]
        )
        previous = set_executor_mode("row")
        try:
            row_default = translate(query).run(QueryContext(acme.om))
        finally:
            set_executor_mode(previous)
        vec_default = translate(query).run(QueryContext(acme.om))
        assert row_default == vec_default


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
        row, vec = run_modes(query, acme.om)
        assert row == vec
        assert row == query.evaluate(QueryContext(acme.om))

    def test_missing_elements_yield_novalue_in_batches(self, acme):
        om = MemoryObjectManager()
        employees = big_collection(om, 40, every=3)
        e, = variables("e")
        query = SetQuery(
            result=e.path("Salary"),
            binders=[(e, Const(employees))],
            condition=(e.path("Bonus") > 30),  # NOVALUE on 2/3 of rows
        )
        row, vec = run_modes(query, om)
        assert row == vec
        assert row == query.evaluate(QueryContext(om))

    def test_multiple_batches(self):
        om = MemoryObjectManager()
        employees = big_collection(om, DEFAULT_BATCH_SIZE + 40)
        e, = variables("e")
        query = SetQuery(
            result=e.path("Salary"),
            binders=[(e, Const(employees))],
            condition=(e.path("Rank").eq(3)),
        )
        row, vec = run_modes(query, om)
        assert row == vec
        assert len(row) == (DEFAULT_BATCH_SIZE + 40 + 3) // 7

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
        row, vec = run_modes(query, om)
        assert row == vec
        assert row == query.evaluate(QueryContext(om))

    def test_dict_results_batched(self, acme):
        e, = variables("e")
        query = SetQuery(
            result={"last": e.path("Name!Last"), "pay": e.path("Salary")},
            binders=[(e, Const(acme.employees))],
        )
        row, vec = run_modes(query, acme.om)
        assert row == vec
        assert all(set(r) == {"last", "pay"} for r in vec)


class TestAccounting:
    def test_rows_out_identical_across_modes(self, acme):
        e, d = variables("e", "d")

        def build():
            return SetQuery(
                result=e.path("Name!Last"),
                binders=[
                    (e, Const(acme.employees)), (d, Const(acme.departments))
                ],
                condition=(e.path("Salary") > 24000) & (d.path("Budget") > 0),
            )

        row_plan = translate(build())
        row_plan.run(QueryContext(acme.om), mode="row")
        vec_plan = translate(build())
        vec_plan.run(QueryContext(acme.om), mode="vectorized")
        row_counts = [op.rows_out for op in collect_operators(row_plan)]
        vec_counts = [op.rows_out for op in collect_operators(vec_plan)]
        assert row_counts == vec_counts
        assert row_plan.explain() == vec_plan.explain()

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
        row_ctx = QueryContext(om)
        translate(query).run(row_ctx, mode="row")
        vec_ctx = QueryContext(om)
        translate(query).run(vec_ctx, mode="vectorized")
        assert row_ctx.examined == vec_ctx.examined > 0

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
        plan_row, _ = optimize(query, dm)
        plan_vec, _ = optimize(query, dm)
        row = plan_row.run(QueryContext(om, None, dm), mode="row")
        vec = plan_vec.run(QueryContext(om, None, dm), mode="vectorized")
        assert sorted(row) == sorted(vec)
        assert plan_row.rows_out == plan_vec.rows_out


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
    """(store, index store, employees) — the same data on each store.

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
    return om, indexed, om.object(employees.oid)


def _plain(rows):
    return [row.oid if isinstance(row, GemObject) else row for row in rows]


class TestAcrossStores:
    """Row and vectorized agree on every store a plan can run against —
    the memory store, and a session (clean, or reading its own writes)
    over the shared stable store, whose bulk hooks are its own."""

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
        om, index_store, employees = company
        dm = DirectoryManager(index_store)
        if indexed:
            dm.create_directory(index_store.object(employees.oid), "Salary")
        query = self.queries(employees)[name]
        runs = {}
        for mode in ("row", "vectorized"):
            plan, _ = optimize(query, dm)
            ctx = QueryContext(om, None, dm)
            rows = plan.run(ctx, mode=mode)
            runs[mode] = (
                _plain(rows), [op.rows_out for op in collect_operators(plan)],
                plan.explain(), ctx.examined,
            )
        assert runs["row"] == runs["vectorized"]
        assert runs["row"][0] and runs["row"][3] > 0
        if indexed and name == "range":
            assert "IndexRange" in runs["row"][2]

    def test_a_session_keeps_its_access_records_in_either_mode(self, company):
        om, _, employees = company
        if isinstance(om, MemoryObjectManager):
            pytest.skip("the memory store records nothing")
        records = {}
        for mode in ("row", "vectorized"):
            om.reads.clear()
            om.enum_reads.clear()
            translate(self.queries(employees)["two_steps"]).run(
                QueryContext(om), mode=mode
            )
            records[mode] = (om.read_pairs(), set(om.enum_reads))
        assert records["row"] == records["vectorized"]
        assert records["row"][0] and employees.oid in records["row"][1]


class TestBindingBatch:
    def test_round_trip_rows(self):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        batch = BindingBatch.from_rows(rows)
        assert batch.size == 2
        assert batch.rows() == rows

    def test_select_projects_columns(self):
        batch = BindingBatch.from_rows(
            [{"a": i} for i in range(6)]
        ).select_mask([False, True, False, False, True, False], 2)
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
