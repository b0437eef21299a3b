"""The shared "now" value column: when it is rebuilt and what it holds.

``tests/concurrency/test_bulk_hooks.py`` holds every read through a
value column to the per-row definition, state by state.  A stale column
that happens to hold the right values passes there; these tests say
which states must rebuild it — every element write, however it is made,
and nothing else (a select's result is held as a column, and taking or
building it must leave shared columns alone) — and that value columns and their
postings count against the member columns' bound.  The postings net
holds the kernel's answer from the postings to its answer over the
per-row column, state by state.
"""

import random

import pytest

from repro.concurrency import SessionObjectManager
from repro.core import MISSING, GemObject
from repro.core.object_manager import (
    MemberColumn,
    MemberColumns,
    ObjectStore,
    element_column,
)
from repro.core.objects import ColumnObject, element_writes
from repro.core.values import Symbol
from repro.stdm.calculus import (
    NOVALUE,
    BindingBatch,
    Compare,
    Const,
    Not,
    Or,
    PathApply,
    QueryContext,
    Var,
)

from .test_bulk_hooks import REFUSALS, SHARED_STATES, World, both


@pytest.mark.parametrize(
    "state, rebuilt",
    [
        ("shared", False),
        ("result_between", False),  # a result's bindings are no writes
        ("written_elsewhere", True),
        ("one_twin", True),  # a staged write into a twin counts too
        ("other_element_elsewhere", True),
        ("bound_directly", True),
        ("unshared_directly", True),
    ],
)
def test_a_value_column_is_rebuilt_after_any_element_write_and_only_then(state, rebuilt):
    world = World(secret_member=True)
    SHARED_STATES[state](world, random.Random(0))
    (column,) = world.store._member_columns._columns.values()
    built = column.values["salary"][1]
    dba = world.auth.authenticate("DataCurator", "swordfish")
    other = SessionObjectManager(world.store, world.tm, user=dba, authorizer=world.auth)
    members = other.members_of(world.bag)
    values = other.values_at_column(members, "salary")
    assert world.store._member_columns._columns == {world.bag: column}
    assert (column.values["salary"][1] is not built) == rebuilt
    assert values == [m.value_at("salary") for m in members]


def test_element_writes_count_every_direct_write_but_a_fresh_binding():
    obj = GemObject(5000, 0)
    result = ColumnObject(5001, 0)
    moves = []
    for change in (
        lambda: obj.bind("a", 1, 1),
        lambda: obj.unshare_table("a"),
        lambda: result.hold(1, [2, 3], 1),
        lambda: result.elements,  # the column built into its tables
        lambda: obj.unshare_table("absent"),
    ):
        before = element_writes()
        change()
        moves.append(element_writes() != before)
    assert moves == [True, True, False, False, False]


def test_value_columns_count_against_the_member_bound():
    columns = MemberColumns()
    columns.bound = 200
    writes = element_writes()

    def column(oid):
        members = [GemObject(oid * 100 + i, 0) for i in range(50)]
        for i, member in enumerate(members):
            member.bind("x", i, 1)
        owner = GemObject(oid, 0)
        order = [m.oid for m in members]
        return columns.put(MemberColumn(
            owner, owner.version, 0, members, frozenset(order), (), order, {}
        ))

    first = column(1)
    assert columns.values(first, "x", 0, writes) == list(range(50))
    assert columns.values(first, "y", 0, writes) == [MISSING] * 50
    assert columns._held == 150  # 50 members, two value columns
    again = columns.values(first, "x", 0, writes)
    assert columns.values(first, "x", 0, writes) is again and columns._held == 150
    second = column(2)
    assert columns._held == 200
    # a third value column would pass the bound: everything is dropped,
    # and the values are still the answer
    assert columns.values(second, "x", 0, writes) == list(range(50))
    assert columns._columns == {} and columns._held == 0
    assert columns.values(first, "x", 0, writes) is None
    # a column replaced for its owner gives back all it counted
    third = column(3)
    columns.values(third, "x", 0, writes)
    column(3)
    assert columns._held == 50
    # postings count like the values they post, and leave with them
    fourth = column(4)
    posted = columns.values(fourth, "x", 0, writes, posted=True)
    assert posted.truth([3, 60], 0, 50) == [i == 3 for i in range(50)]
    assert columns.values(fourth, "x", 0, writes, posted=True) is posted
    assert columns._held == 200
    assert columns.values(fourth, "x", 0, writes + 1) == list(range(50))
    assert columns._held == 150  # rebuilt values, no postings yet
    assert columns.values(fourth, "x", 0, writes + 1, posted=True) is not posted
    assert columns._held == 200
    # past the bound every column is dropped, and the postings still answer
    assert columns.values(fourth, "y", 0, writes + 1, posted=True).first == {MISSING: 0}
    assert columns._columns == {} and columns._held == 0


# -- postings: the kernel's answer from the value column -------------------------
#
# An ``=`` disjunction over a one-step "now" path asks the session for its
# truth column first; the session answers a run of its last member column
# from the postings kept beside the value column.  The definition is the
# kernel over the per-row column (the base class's ``value_at`` loop), with
# no postings asked for.

#: element -> what its members hold: ints, names, repeats with nil,
#: True / 1 and Symbol / str (and a member without it), floats, objects
POSTED = {"salary": True, "name": True, "tag": True, "absent": True,
          "ratio": False, "dept": False}
TAGS = (1, True, None, Symbol("x"), "x", "y", 2, 2, 3)
#: probes every run asks for besides three of the column's own values:
#: what the states write (-7, -8, -9) and what no key can match
PROBES = (None, True, 1, 2.0, "x", Symbol("y"), -7, -8, -9, float("nan"), NOVALUE)


def posted_world():
    world = World(secret_member=True)
    other = SessionObjectManager(world.store, world.tm)
    for i, oid in enumerate(world.members):
        if i % 7:
            other.bind(oid, "tag", TAGS[i % len(TAGS)])
        other.bind(oid, "ratio", i / 4)
    world.times.append(other.commit())
    other.close()
    return world


def kernel(element, probes, negated):
    path = PathApply(Var("e"), element)
    tree = Compare("==", path, Const(probes[0]))
    for probe in probes[1:]:
        tree = Or(tree, Compare("==", path, Const(probe)))
    return Not(tree) if negated else tree


@pytest.mark.parametrize("state", SHARED_STATES)
@pytest.mark.parametrize("pinned", (False, True))
def test_postings_answer_what_the_kernel_answers_over_the_per_row_column(
    state, pinned, monkeypatch
):
    fired = []
    posted_truth = SessionObjectManager.posted_truth

    def spy(session, targets, name, keys):
        truth = posted_truth(session, targets, name, keys)
        fired.append((name, truth is not None))
        return truth

    monkeypatch.setattr(SessionObjectManager, "posted_truth", spy)

    def prepare(world):
        rng = random.Random(3)
        SHARED_STATES[state](world, rng)
        return rng, world.times[-2] if pinned else None

    def call(world, context, posted):
        rng, time = context
        s = world.session
        fired.clear()  # what the warm scan asked is no answer of this run
        if not posted:  # the definition: no postings, a value_at per row
            s.posted_truth = lambda *args: None
            s.values_at_column = ObjectStore.values_at_column.__get__(s)
        # the members the warm scan read, perhaps before the state
        # changed, then (unless the session is closed) the members now
        scans = [world.warm] if s.closed else [world.warm, [
            m for m in s.members_of(world.bag) if isinstance(m, GemObject)
        ]]
        batches = [
            batch
            for members in scans
            for batch in (members[:32], members[32:64], members[32:64],
                          members[64:], members, members[1::2])
        ]
        answers = []
        for batch in batches:
            for element in POSTED:
                committed = element_column(batch, element, None)
                probes = [  # what the path gives for these rows
                    NOVALUE if value is MISSING else value
                    for value in rng.sample(committed, 3)
                ] + list(PROBES)
                if element == "dept":  # an object probe keys by oid
                    probes.append(world.store.object(world.members[1]).value_at("dept"))
                for negated in (False, True):
                    ctx = QueryContext(s, time)
                    truth = kernel(element, probes, negated).evaluate_column(
                        ctx, BindingBatch({"e": batch}, len(batch))
                    )
                    answers.append((element, truth, ctx.examined))
        return answers

    outcome = both(posted_world, prepare, call)
    if state not in REFUSALS:
        assert outcome[0] == "ok"
    if state in ("shared", "result_between", "written_elsewhere") and not pinned:
        assert {name for name, answered in fired if answered} == {
            name for name, posted in POSTED.items() if posted
        }
    if state in ("one_twin", "member_twin", "dial_back", "closed") or pinned:
        assert not any(answered for _name, answered in fired)
