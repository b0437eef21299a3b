"""Join fusion: hash joins, index nested-loop joins, and their edges.

The optimizer must turn equality join conjuncts into sub-quadratic
operators (``HashJoin``, or ``IndexEq`` probes when a directory covers
the member side) while preserving exact calculus semantics — including
NOVALUE failing *every* comparison and unhashable join keys.
"""

import pytest

from repro.core import MemoryObjectManager
from repro.directories import DirectoryManager
from repro.stdm import (
    Apply,
    BindScan,
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
from repro.stdm.translate import match_join_conjunct


@pytest.fixture
def company():
    """Employees referencing departments by name; some rows incomplete."""
    om = MemoryObjectManager()
    departments = om.instantiate("Object")
    dept_names = ["Sales", "Research", "Planning", "Marketing"]
    for i, name in enumerate(dept_names):
        staff = om.instantiate("Object")
        for member in (name + "-lead", name + "-deputy"):
            om.bind(staff, om.new_alias(), member)
        dept = om.instantiate(
            "Object", Name=name, Budget=(i + 1) * 1000, Staff=staff
        )
        om.bind(departments, om.new_alias(), dept)
    nameless = om.instantiate("Object", Budget=9)  # no Name element
    om.bind(departments, om.new_alias(), nameless)
    employees = om.instantiate("Object")
    for i in range(24):
        emp = om.instantiate("Object", Salary=i * 100)
        if i % 4 != 3:  # every 4th employee has no DeptName
            om.bind(emp, "DeptName", dept_names[i % len(dept_names)])
        om.bind(employees, om.new_alias(), emp)
    return om, employees, departments


def join_query(employees, departments, condition_builder):
    d, e = variables("d", "e")
    return SetQuery(
        result={"pay": e.path("Salary"), "budget": d.path("Budget")},
        binders=[(d, Const(departments)), (e, Const(employees))],
        condition=condition_builder(d, e),
    )


def check_all_paths(query, om, dm=None):
    """The nested-loop reference vs the fused plan; returns the plan."""
    reference = sorted(
        map(repr, query.evaluate(QueryContext(om)))
    )
    plan, choices = optimize(query, dm)
    fused = sorted(map(repr, plan.run(QueryContext(om, None, dm))))
    assert fused == reference
    return plan, choices


class TestHashJoin:
    def test_equality_conjunct_fuses(self, company):
        om, employees, departments = company
        query = join_query(
            employees, departments,
            lambda d, e: e.path("DeptName").eq(d.path("Name")),
        )
        plan, choices = check_all_paths(query, om)
        assert any(c.kind == "hash" for c in choices)
        joins = [
            op for op in collect_operators(plan) if isinstance(op, HashJoin)
        ]
        assert len(joins) == 1
        assert joins[0].var == "e"

    def test_join_rows_subquadratic(self, company):
        om, employees, departments = company
        query = join_query(
            employees, departments,
            lambda d, e: e.path("DeptName").eq(d.path("Name")),
        )
        plan, _ = optimize(query, None)
        results = plan.run(QueryContext(om))
        join = next(
            op for op in collect_operators(plan) if isinstance(op, HashJoin)
        )
        # the join emits only matches — never the 24×5 cross product
        assert join.rows_out == len(results) == 18
        assert join.rows_out < 24 * 5
        assert f"[rows_out={join.rows_out}]" in plan.explain()

    def test_remaining_conjuncts_filter_above_join(self, company):
        om, employees, departments = company
        query = join_query(
            employees, departments,
            lambda d, e: (
                e.path("DeptName").eq(d.path("Name"))
                & (e.path("Salary") > 1000)
            ),
        )
        plan, choices = check_all_paths(query, om)
        assert any(c.kind == "hash" for c in choices)

    def test_novalue_member_keys_never_match(self, company):
        om, employees, departments = company
        # employees without DeptName and the nameless department both
        # carry NOVALUE keys; neither may pair with anything
        query = join_query(
            employees, departments,
            lambda d, e: e.path("DeptName").eq(d.path("Name")),
        )
        plan, _ = optimize(query, None)
        rows = plan.run(QueryContext(om))
        assert all(row["budget"] != 9 for row in rows)
        assert len(rows) == 18  # 6 of 24 employees lack DeptName

    def test_novalue_inequality_not_fused_still_fails(self, company):
        om, employees, departments = company
        # `!=` is not a join conjunct, and NOVALUE fails it too: rows
        # with a missing DeptName must not leak through the negation
        query = join_query(
            employees, departments,
            lambda d, e: e.path("DeptName").ne(d.path("Name")),
        )
        plan, choices = check_all_paths(query, om)
        assert not any(c.kind == "hash" for c in choices)
        rows = plan.run(QueryContext(om))
        assert all(row["budget"] != 9 for row in rows)

    def test_self_join(self, company):
        om, employees, _ = company
        a, b = variables("a", "b")
        query = SetQuery(
            result={"x": a.path("Salary"), "y": b.path("Salary")},
            binders=[(a, Const(employees)), (b, Const(employees))],
            condition=a.path("DeptName").eq(b.path("DeptName")),
        )
        plan, choices = check_all_paths(query, om)
        assert any(c.kind == "hash" for c in choices)

    def test_unhashable_join_keys_fall_back_to_scan_matching(self, company):
        om, employees, departments = company
        wrap = lambda value: [value]  # noqa: E731 — list keys are unhashable
        query = join_query(
            employees, departments,
            lambda d, e: Apply(wrap, e.path("DeptName")).eq(
                Apply(wrap, d.path("Name"))
            ),
        )
        plan, choices = check_all_paths(query, om)
        assert any(c.kind == "hash" for c in choices)
        join = next(
            op for op in collect_operators(plan) if isinstance(op, HashJoin)
        )
        assert join.rows_out == 18

    def test_dependent_source_never_fused(self, company):
        om, employees, departments = company
        d, m = variables("d", "m")
        query = SetQuery(
            result=m,
            binders=[(d, Const(departments)), (m, d.path("Staff"))],
            # join-shaped conjunct, but m's source depends on d: the
            # optimizer must leave it as a dependent scan + filter
            condition=m.eq(d.path("Name")),
        )
        plan, choices = check_all_paths(query, om)
        assert not any(
            isinstance(op, HashJoin) for op in collect_operators(plan)
        )

    def test_describe_names_both_keys(self, company):
        om, employees, departments = company
        query = join_query(
            employees, departments,
            lambda d, e: e.path("DeptName").eq(d.path("Name")),
        )
        plan, _ = optimize(query, None)
        join = next(
            op for op in collect_operators(plan) if isinstance(op, HashJoin)
        )
        assert "HashJoin" in join.describe()
        assert "e" in join.describe()


class TestIndexNestedLoop:
    def test_directory_beats_hash_join(self, company):
        om, employees, departments = company
        dm = DirectoryManager(om)
        dm.create_directory(employees, "DeptName")
        query = join_query(
            employees, departments,
            lambda d, e: e.path("DeptName").eq(d.path("Name")),
        )
        plan, choices = check_all_paths(query, om, dm)
        operators = collect_operators(plan)
        assert any(isinstance(op, IndexEq) for op in operators)
        assert not any(isinstance(op, HashJoin) for op in operators)
        assert not any(
            isinstance(op, BindScan) and op.var == "e" for op in operators
        )

    def test_index_probe_rows_subquadratic(self, company):
        om, employees, departments = company
        dm = DirectoryManager(om)
        dm.create_directory(employees, "DeptName")
        query = join_query(
            employees, departments,
            lambda d, e: e.path("DeptName").eq(d.path("Name")),
        )
        plan, _ = optimize(query, dm)
        results = plan.run(QueryContext(om, None, dm))
        probe = next(
            op for op in collect_operators(plan) if isinstance(op, IndexEq)
        )
        assert probe.rows_out == len(results) == 18
        assert probe.rows_out < 24 * 5


class TestMatchJoinConjunct:
    def setup_method(self):
        self.d, self.e = variables("d", "e")

    def test_accepts_equality_across_bindings(self):
        conjunct = self.e.path("DeptName").eq(self.d.path("Name"))
        match = match_join_conjunct(conjunct, "e", {"d"})
        assert match is not None
        member_key, probe_key = match
        assert member_key.free_vars() == {"e"}
        assert probe_key.free_vars() == {"d"}

    def test_accepts_swapped_sides(self):
        conjunct = self.d.path("Name").eq(self.e.path("DeptName"))
        assert match_join_conjunct(conjunct, "e", {"d"}) is not None

    def test_rejects_inequality(self):
        conjunct = self.e.path("DeptName").ne(self.d.path("Name"))
        assert match_join_conjunct(conjunct, "e", {"d"}) is None

    def test_rejects_constant_probe_side(self):
        conjunct = self.e.path("DeptName").eq("Sales")
        assert match_join_conjunct(conjunct, "e", {"d"}) is None

    def test_rejects_unbound_probe_vars(self):
        conjunct = self.e.path("DeptName").eq(self.d.path("Name"))
        assert match_join_conjunct(conjunct, "e", set()) is None

    def test_rejects_single_variable_both_sides(self):
        conjunct = self.e.path("A").eq(self.e.path("B"))
        assert match_join_conjunct(conjunct, "e", {"d"}) is None
