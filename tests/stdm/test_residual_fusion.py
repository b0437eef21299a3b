"""Residual-filter fusion: a run of same-column ``~=`` conjuncts is one filter.

``optimize`` joins each run of *adjacent* residual conjuncts that test one
path (or variable) column with ``~=`` against row-independent values into
one ``Filter`` over their ``and``, which the predicate kernel answers in
one pass as "none of" (``calculus._fused_column``); ``translate`` never
fuses.  Held here, on a session store whose members sometimes have no
name (no-value rows) and share names and salaries:

* the plan: which conjuncts fuse and which must not — two paths, a run
  broken by another path's conjunct, a row-dependent side — and
  ``explain`` of every plan with nothing to fuse byte-identical to the
  plan built with fusion off;
* the answer: members, the root's ``rows_out``, fuel, read pairs and
  ``enum_reads`` equal to the plan built with fusion off, and the
  members equal to ``SetQuery.evaluate``;
* the slow-query log's plan text, which shows the fused filter as one
  node with its conjunct count.
"""

import importlib

import pytest

from repro import GemStone
from repro.core import Ref
from repro.obs import SlowQueryLog
from repro.stdm import Const, QueryContext, SetQuery, conjuncts, optimize, variables
from repro.stdm.algebra import Filter, collect_operators
from repro.stdm.calculus import And, Compare, Param

#: the module, which ``repro.stdm.optimize`` (the function) shadows
optimize_module = importlib.import_module("repro.stdm.optimize")
EMPLOYEES = 40

e, d = variables("e", "d")
SALARY, NAME, BONUS = e.path("salary"), e.path("name"), e.path("bonus")


@pytest.fixture(scope="module")
def db():
    database = GemStone.create()
    loader = database.login()
    loader.execute("Object subclass: #Employee instVarNames: #(name salary bonus)")
    employees = loader.new("Bag")
    for i in range(EMPLOYEES):
        elements = {"salary": 1000 + i % 30, "bonus": 1000 + i % 4}
        if i % 5:  # every fifth employee has no name: a no-value row
            elements["name"] = f"emp{i % 7}"
        loader.session.add_members(employees, [loader.new("Employee", **elements)])
    loader.assign("employees", employees)
    loader.commit()
    database.create_directory(database.store.object(employees.oid), "salary")
    database.employees = Ref(employees.oid)
    loader.close()
    return database


def query(db, condition, binders=()):
    return SetQuery(
        result=e, binders=[(e, Const(db.employees)), *binders], condition=condition
    )


def plans(db, condition, monkeypatch, binders=()):
    """The plan ``optimize`` builds, and the one it builds with fusion off."""
    fused, _ = optimize(query(db, condition, binders), db.directory_manager)
    with monkeypatch.context() as patch:
        patch.setattr(optimize_module, "_residual_key", lambda _conjunct: None)
        unfused, _ = optimize(query(db, condition, binders), db.directory_manager)
    return fused, unfused


def run(db, plan, params=()):
    """A plan's members and what running it left: root rows, fuel, reads."""
    session = db.login()
    try:
        manager = session.session
        ctx = QueryContext(manager, None, db.directory_manager, params=params)
        members = sorted(member.oid for member in plan.run(ctx))
        return (members, plan.rows_out, ctx.examined, manager.read_pairs(),
                set(manager.enum_reads))
    finally:
        session.close()


def filters(plan):
    """Each filter's conjunct count, root first."""
    return [
        len(conjuncts(node.predicate)) if type(node.predicate) is And
        else 1
        for node in collect_operators(plan) if isinstance(node, Filter)
    ]


def test_each_run_is_one_filter_over_its_own_column(db, monkeypatch):
    condition = (
        (SALARY >= 1005) & (SALARY < 1025)
        & SALARY.ne(1010) & SALARY.ne(1011) & SALARY.ne(1010) & Compare("!=", Const(1012), SALARY)
        & NAME.ne("emp3") & NAME.ne(3)
    )
    fused, unfused = plans(db, condition, monkeypatch)
    assert filters(fused) == [2, 4]
    assert filters(unfused) == [1] * 6
    lines = fused.explain().splitlines()
    assert lines[1].strip().startswith(
        "Filter[2] (e!name != 'emp3') and (e!name != 3)  [rows_out="
    )
    assert lines[2].strip().startswith(
        "Filter[4] (e!salary != 1010) and (e!salary != 1011)"
        " and (e!salary != 1010) and (1012 != e!salary)  [rows_out="
    )
    assert "IndexRange" in lines[3]
    answer = run(db, fused)
    assert answer == run(db, unfused)
    members = sorted(m.oid for m in query(db, condition).evaluate(QueryContext(db.store)))
    assert answer[0] == members
    assert members, "the bracket keeps some rows"


def test_a_run_is_adjacent_conjuncts_only(db, monkeypatch):
    """Another path's conjunct between two ``~=`` on one path breaks the
    run: fusing across it would change the order the columns are read
    in, and so which rows' names are read."""
    condition = SALARY.ne(1010) & NAME.ne("emp3") & SALARY.ne(1011) & NAME.ne("emp4")
    fused, unfused = plans(db, condition, monkeypatch)
    assert filters(fused) == [1, 1, 1, 1]
    assert fused.explain() == unfused.explain()
    assert run(db, fused) == run(db, unfused)


def test_a_run_is_adjacent_in_the_plan(db, monkeypatch):
    """A conjunct over a later binder attaches later: the two on ``e``
    around it are adjacent filters, and fuse."""
    binders = [(d, Const(db.employees))]
    condition = SALARY.ne(1010) & d.path("salary").ne(1001) & SALARY.ne(1011)
    fused, unfused = plans(db, condition, monkeypatch, binders)
    assert filters(fused) == [1, 2]
    assert run(db, fused) == run(db, unfused)


def test_a_conjunct_the_probe_takes_leaves_its_neighbours_adjacent(db, monkeypatch):
    condition = SALARY.ne(1010) & (SALARY < 1020) & SALARY.ne(1011)
    fused, unfused = plans(db, condition, monkeypatch)
    assert filters(fused) == [2]
    assert run(db, fused) == run(db, unfused)


@pytest.mark.parametrize("condition", [
    SALARY.ne(BONUS) & SALARY.ne(1010),                # a row-dependent side
    SALARY.ne(1010) & SALARY.ne(BONUS),
    SALARY.ne(BONUS) & SALARY.ne(BONUS + 1),
    SALARY.ne(1010),                                     # a run of one
    SALARY.ne(1010) & SALARY.eq(1011),                   # an = among the ~=
    SALARY.ne(1010) & (SALARY > BONUS) & SALARY.ne(1011),
    NAME.ne("emp1") & BONUS.ne(1001) & NAME.ne("emp2"),  # unindexed: a scan
    (SALARY > 1003) & (NAME.ne("emp1") | NAME.ne("emp2")),
    e.path("name!size").ne(3) & NAME.ne("emp2"),         # two columns
])
def test_nothing_to_fuse_explains_as_before(db, monkeypatch, condition):
    fused, unfused = plans(db, condition, monkeypatch)
    assert fused.explain() == unfused.explain()
    assert "Filter[" not in fused.explain()
    assert run(db, fused) == run(db, unfused)


def test_the_fused_filter_reads_and_charges_what_the_filters_did(db, monkeypatch):
    """Over the no-value rows, with lifted literals, duplicates, a Ref
    and mixed types: same members, rows, fuel, read pairs and
    enum_reads."""
    params = ["emp2", 1013, "emp2"]
    for condition in (
        NAME.ne(Param(0)) & NAME.ne("emp5") & NAME.ne(Param(2)),
        (SALARY > 1003) & SALARY.ne(Param(1)) & SALARY.ne("1014") & SALARY.ne(db.employees)
        & NAME.ne(Param(0)) & NAME.ne(1),
        e.ne(db.employees) & e.ne(5),
    ):
        fused, unfused = plans(db, condition, monkeypatch)
        assert 1 not in filters(fused)
        assert run(db, fused, params) == run(db, unfused, params)


def test_the_slow_query_log_shows_the_fused_filter(db):
    db.obs.slow_queries = SlowQueryLog(capacity=4)
    session = db.login()
    try:
        assert session.execute(
            "(World!employees select: [:e | (e!salary >= 1005) & (e!salary < 1025)"
            " & (e!salary ~= 1010) & (e!salary ~= 1011) & (e!name ~= 'emp3')]) size"
        ) > 0
    finally:
        session.close()
    entry, = db.obs.slow_queries.slowest()
    assert entry["plan"][1:3] == [
        "Filter (e!name != 'emp3')",
        "Filter[2] (e!salary != 1010) and (e!salary != 1011)",
    ]
