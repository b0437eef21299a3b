"""The nets a bulk read could silently cut, seen from OPAL.

A ``select:`` over a session reads its members, and their elements, a
column at a time.  What it read must still be on record when the
transaction commits (optimistic validation, phantoms included), and what
it built — a transient filled in one call — must still become a real,
durable object the moment something persistent points at it.
"""

import gc
import weakref

import pytest

from repro import GemStone
from repro.core import Symbol
from repro.dr.verify import reopen_cold_diff
from repro.errors import TransactionConflict
from repro.storage import DiskGeometry, SimulatedDisk

EMPLOYEES = 60


@pytest.fixture
def db():
    database = GemStone.create(
        disk=SimulatedDisk(DiskGeometry(track_count=4096, track_size=512))
    )
    loader = database.login()
    loader.execute("Object subclass: #Employee instVarNames: #(name salary)")
    employees = loader.new("Bag")
    for i in range(EMPLOYEES):
        employee = loader.new("Employee", name=f"emp{i:02d}", salary=1000 + i)
        loader.session.add_members(employees, [employee])
    loader.assign("employees", employees)
    loader.execute("World!tally := 0")
    loader.commit()
    loader.close()
    return database


SCAN = "(World!employees select: [:e | (e!name = 'emp07') | (e!name = 'emp08')]) size"


def test_a_scan_select_conflicts_with_a_committed_change_to_what_it_read(db):
    a, b = db.login(), db.login()
    assert a.execute(SCAN) == 2
    b.execute("(World!employees detect: [:e | e!name = 'emp30']) at: #name put: 'gone'")
    b.commit()
    a.execute("World!tally := 1")
    with pytest.raises(TransactionConflict):
        a.commit()
    # the retry reads the new state and goes through
    assert a.execute(SCAN) == 2
    a.execute("World!tally := 1")
    a.commit()


def test_a_scan_select_conflicts_with_a_phantom_member(db):
    a, b = db.login(), db.login()
    assert a.execute(SCAN) == 2
    b.execute("World!employees add: (Employee new)")
    b.commit()
    a.execute("World!tally := 1")
    with pytest.raises(TransactionConflict):
        a.commit()


def test_the_residual_reads_of_an_indexed_select_conflict_too(db):
    employees = db.login().execute("World!employees")
    db.create_directory(db.store.object(employees.oid), "salary")
    a, b = db.login(), db.login()
    indexed = "(World!employees select: [:e | (e!salary > 1050) & (e!name ~= 'x')]) size"
    assert a.execute(indexed) == 9
    b.execute("(World!employees detect: [:e | e!salary = 1055]) at: #name put: 'x'")
    b.commit()
    a.execute("World!tally := 1")
    with pytest.raises(TransactionConflict):
        a.commit()
    assert a.execute(indexed) == 8


def test_an_unpromoted_result_never_conflicts_and_never_commits(db):
    a, b = db.login(), db.login()
    stored = len(db.store.table)
    result = a.execute("World!employees collect: [:e | 1]")
    assert len(result.elements) == EMPLOYEES
    b.execute("World!tally := 5")  # nothing A read
    b.commit()
    a.execute("World!other := 1")
    a.commit()  # the result and its aliases were never reads or writes
    assert not db.store.contains(result.oid)
    assert len(db.store.table) == stored


def test_a_stored_result_reopens_cold_with_every_member(db):
    session = db.login()
    session.execute(
        "World!rich := World!employees select: [:e | e!salary >= 1040]"
    )
    session.execute("World!ones := World!employees collect: [:e | e!salary - 1000]")
    assert session.execute("World!rich size") == 20
    session.commit()
    assert reopen_cold_diff(db) == []
    reopened = GemStone.open(db.disk).login()
    assert reopened.execute("World!rich size") == 20
    assert reopened.execute(
        "(World!rich collect: [:e | e!salary]) asSortedArray"
    ) == tuple(range(1040, 1060))
    assert reopened.execute("World!ones sum") == sum(range(EMPLOYEES))
    # a result is an ordinary collection afterwards: it takes members
    reopened.execute("World!rich add: 7")
    reopened.commit()
    assert reopened.execute("World!rich size") == 21


def test_the_aliases_of_discarded_results_leave_with_them(db):
    session = db.login()
    session.execute("World!employees select: [:e | e!salary > 1010]")  # warm
    before = len(Symbol._interned)
    for _ in range(40):
        result = session.execute("World!employees select: [:e | e!salary > 1010]")
        session.execute("World!employees collect: [:e | e!name]")
    alias = weakref.ref(next(iter(result.elements)))
    assert type(alias()) is Symbol and alias().startswith("a")
    del result
    session.close()
    gc.collect()
    assert alias() is None
    assert len(Symbol._interned) <= before + 10
