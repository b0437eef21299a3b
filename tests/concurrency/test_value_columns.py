"""The shared "now" value column: when it is rebuilt and what it holds.

``tests/concurrency/test_bulk_hooks.py`` holds every read through a
value column to the per-row definition, state by state.  A stale column
that happens to hold the right values passes there; these tests say
which states must rebuild it — every element write, however it is made,
and nothing else (a select's result is built with ``bind_fresh``, which
must leave shared columns alone) — and that value columns count against
the member columns' bound.
"""

import random

import pytest

from repro.concurrency import SessionObjectManager
from repro.core import MISSING, GemObject
from repro.core.object_manager import MemberColumn, MemberColumns
from repro.core.objects import element_writes

from .test_bulk_hooks import SHARED_STATES, World


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
    moves = []
    for change in (
        lambda: obj.bind("a", 1, 1),
        lambda: obj.unshare_table("a"),
        lambda: obj.bind_fresh(["b", "c"], [2, 3], 1),
        lambda: obj.unshare_table("absent"),
    ):
        before = element_writes()
        change()
        moves.append(element_writes() != before)
    assert moves == [True, True, False, False]


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
