"""The nets a bulk read could silently cut, seen from OPAL.

A ``select:`` over a session reads its members, and their elements, a
column at a time.  What it read must still be on record when the
transaction commits (optimistic validation, phantoms included), and what
it built — a transient filled in one call — must still become a real,
durable object the moment something persistent points at it.
"""

import gc
import random
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


def employee_oid(session, number):
    return session.execute(
        f"World!employees detect: [:e | e!name = 'emp{number:02d}']"
    ).oid


RENAME = "(World!employees detect: [:e | e!name = 'emp{:02d}']) at: #name put: 'gone'"


def test_a_scan_select_conflicts_with_a_later_prepared_write(db):
    a, b = db.login(), db.login()
    tm = db.transaction_manager
    assert a.execute(SCAN) == 2
    b.execute(RENAME.format(30))
    assert tm.prepare(b.session, "g-b") is not None  # in doubt: a lock
    a.execute("World!tally := 1")
    with pytest.raises(TransactionConflict) as caught:
        a.commit()
    # the reads outnumber the writes: the pair is named as the write named it
    assert repr(caught.value.conflicts) == repr(((employee_oid(b, 30), Symbol("name")),))
    tm.abort_prepared("g-b")
    a.execute(SCAN)
    a.execute("World!tally := 1")
    a.commit()


def test_a_prepared_scan_select_conflicts_with_a_later_write(db):
    a, b = db.login(), db.login()
    tm = db.transaction_manager
    assert a.execute(SCAN) == 2
    a.execute("World!tally := 1")
    assert tm.prepare(a.session, "g-a") is not None
    b.execute(RENAME.format(30))
    with pytest.raises(TransactionConflict) as caught:
        b.commit()
    assert repr(caught.value.conflicts) == repr(((employee_oid(b, 30), Symbol("name")),))
    # what the prepared scan did not read stays free to change
    b.execute("World!other := 1")
    b.commit()
    tm.commit_prepared("g-a")
    assert b.execute("World!tally") == 1


@pytest.mark.parametrize("read_as, write_as", (("symbol", "str"), ("str", "symbol")))
def test_a_name_read_as_a_symbol_conflicts_with_it_written_as_a_string(
    db, read_as, write_as
):
    read = {"symbol": "World at: #tally", "str": "World!tally"}
    write = {"symbol": "World at: #tally put: 9", "str": "World!tally := 9"}
    a, b = db.login(), db.login()
    a.execute(read[read_as])
    b.execute(write[write_as])
    b.commit()
    a.execute("World!other := 1")
    with pytest.raises(TransactionConflict) as caught:
        a.commit()
    ((oid, name),) = caught.value.conflicts
    assert name == "tally" and oid == a.execute("World").oid
    # one read, one write: the pair is named as the reads name it
    assert type(name) is (Symbol if read_as == "symbol" else str)


def test_a_seeded_conflict_names_its_elements_as_the_set_intersection_did(db):
    """Walked from the smaller side, named as that side names them."""
    rng = random.Random(2026)
    a, b = db.login(), db.login()
    world = a.execute("World").oid
    # wide reads, few writes: the writes are walked and name the pairs
    a.execute(SCAN)
    a.execute("World at: #tally")
    renamed = {n: employee_oid(db.login(), n) for n in rng.sample(range(EMPLOYEES), 3)}
    for number in renamed:
        b.execute(RENAME.format(number))
    b.execute("World!tally := 9")
    b.commit()
    a.execute("World!other := 1")
    with pytest.raises(TransactionConflict) as caught:
        a.commit()
    expected = {(oid, Symbol("name")) for oid in renamed.values()} | {
        (world, "tally")
    }
    assert repr(caught.value.conflicts) == repr(tuple(sorted(expected, key=repr)))
    assert str(caught.value).startswith("validation failed on 4 element(s)")
    # two reads, three writes: the reads are walked and name the pairs
    a.execute("World at: #tally")
    a.execute("World!other")
    b.execute("World!tally := 10")
    b.execute("World at: #other put: 2")
    b.execute("World!x := 1")
    b.commit()
    a.execute("World!mine := 1")
    with pytest.raises(TransactionConflict) as caught:
        a.commit()
    assert repr(caught.value.conflicts) == repr(
        ((world, Symbol("tally")), (world, "other"))
    )


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
