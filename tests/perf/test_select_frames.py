"""A count, not a time: function calls per declarative select.

A session used to answer the batch executor one row at a time: every
member of a scanned collection cost about ten Python frames to be
dereferenced and ten more to have one element read, and every result
row went through the whole ``bind`` write path.  The bulk hooks took the
per-row frames out, the predicate kernel took out the per-term passes
over the scan's name column, and the shared value column took out the
per-row element read; these bounds keep all three out.  They are upper
bounds under ``cProfile`` (which also counts calls of builtins), loose
enough for any supported interpreter and far below the per-row cost:

====================  ==========  ========  ========  ============  =======
select (4 000 rows)   per row     bulk      kernel    value column  bound
====================  ==========  ========  ========  ============  =======
unindexed scan        101 000     ≈ 4 950   ≈ 4 960   ≈ 985         1 500
indexed range, ≈ 75   6 400       ≈ 2 650   ≈ 2 650   ≈ 2 660       4 500
====================  ==========  ========  ========  ============  =======

A warm scan reads each batch's names as a run of the store's shared
value column: no ``dict.get`` per row (the element-column comprehension
does not run at all), so what is left is a per-batch constant.  What
must not grow with the row count is the Python frames: a 4 000-row scan
is four batches to a 1 000-row scan's one, and may cost only a
per-batch constant more.

Beside the call gate, an allocation gate: a scan's access record is one
set of oids per element name, so what a row adds to an open read-only
transaction is a set slot (≈ 33 B), not an (oid, name) tuple as well
(≈ 89 B).  And a warm ``members_of`` is the store's shared member
column: no call per member, no cache lookup.
"""

import cProfile
import gc
import pstats
import random
import tracemalloc

import pytest

from repro import GemStone
from repro.core.object_manager import element_column
from repro.stdm.calculus import Compare, _short_circuit
from repro.storage.cache import ObjectCache

ROWS = 4000
SCAN = (
    "(World!employees select: [:e | (e!name = 'emp0007') | (e!name = 'emp2100')"
    " | (e!name = 'emp4100')]) size"
)
RANGE = (
    "(World!employees select: [:e | (e!salary >= 50000) & (e!salary < 51500)"
    " & (e!salary ~= 50001) & (e!salary ~= 50777) & (e!salary ~= 51000)"
    " & (e!salary ~= 51499) & (e!name ~= 'emp0100') & (e!name ~= 'emp3900')]) size"
)
#: Python frames a batch may add to the scan (three extra batches between
#: 1 000 and 4 000 rows; about 35 each today, one per row would be 1 000)
FRAMES_PER_BATCH = 60


def employees_session(rows):
    database = GemStone.create()
    loader = database.login()
    loader.execute("Object subclass: #Employee instVarNames: #(name salary)")
    rng = random.Random(2026)
    employees = loader.new("Bag")
    for i in range(rows):
        employee = loader.new(
            "Employee", name=f"emp{i:04d}", salary=rng.randrange(10_000, 90_000)
        )
        loader.session.add_members(employees, [employee])
    loader.assign("employees", employees)
    loader.commit()
    database.create_directory(database.store.object(employees.oid), "salary")
    loader.close()
    return database.login()


@pytest.fixture(scope="module")
def session():
    with employees_session(ROWS) as opened:
        yield opened


@pytest.fixture(scope="module")
def small_session():
    with employees_session(ROWS // 4) as opened:
        yield opened


def profiled(session, source):
    """(answer, total calls, Python frames, session calls by name, stats)."""
    session.execute(source)  # compile, translate and plan outside the count
    session.abort()
    profile = cProfile.Profile()
    profile.enable()
    answer = session.execute(source)
    profile.disable()
    stats = pstats.Stats(profile)
    frames = 0
    by_name: dict[str, int] = {}
    for (path, _line, name), (_cc, calls, *_rest) in stats.stats.items():
        if path != "~":  # builtins are listed under "~"
            frames += calls
        if "concurrency/sessions.py" in path:
            by_name[name] = by_name.get(name, 0) + calls
    return answer, stats.total_calls, frames, by_name, stats


def calls_of(stats, function) -> int:
    """How often *function* itself ran in a profile."""
    code = function.__code__
    return sum(
        calls
        for (path, line, name), (_cc, calls, *_rest) in stats.stats.items()
        if (path, line, name) == (code.co_filename, code.co_firstlineno, code.co_name)
    )


def test_a_warm_scan_select_stays_under_fifteen_hundred_calls(session):
    answer, calls, _frames, by_name, stats = profiled(session, SCAN)
    assert answer == 2
    assert calls <= 1_500
    assert by_name.get("bind", 0) == 0
    # a frame per row is exactly what must not come back
    assert by_name.get("object", 0) < 10 and by_name.get("value_at", 0) < 10
    # the first scan built the value column; this one reads it
    assert calls_of(stats, element_column) == 0


def test_a_scan_predicate_is_one_kernel_over_its_column(session):
    _answer, _calls, _frames, _by_name, stats = profiled(session, SCAN)
    # the three comparisons are one membership pass per batch: no
    # comparison node runs, and no connective gathers a sub-batch
    assert calls_of(stats, Compare.evaluate_column) == 0
    assert calls_of(stats, _short_circuit) == 0


def test_a_scan_costs_a_constant_per_batch_not_per_row(session, small_session):
    large = profiled(session, SCAN)
    small = profiled(small_session, SCAN.replace("emp4100", "emp0400"))
    assert (large[0], small[0]) == (2, 2)
    assert large[2] - small[2] <= 3 * FRAMES_PER_BATCH


def test_a_warm_members_of_reads_the_shared_column(session):
    store = session.session
    employees = session.execute("World!employees")
    store.members_of(employees)
    profile = cProfile.Profile()
    profile.enable()
    members = store.members_of(employees)
    profile.disable()
    stats = pstats.Stats(profile)
    assert len(members) == ROWS
    # no call per member: the column was dereferenced and checked once
    assert stats.total_calls <= 40
    assert calls_of(stats, ObjectCache.get_hits) == 0


def scan_bytes(session, source):
    """Bytes a warm read-only scan leaves allocated: (while its
    transaction is open, once ``abort()`` has ended it)."""
    session.execute(source)
    session.abort()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        session.execute(source)
        during = tracemalloc.get_traced_memory()[0]
        session.abort()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return during - before, after - before


def test_a_scan_records_its_reads_without_a_tuple_per_row(session, small_session):
    # 4 000 rows against 1 000: what a row adds.  A (oid, name) tuple and
    # its set slot per row read ≈ 89 B; an oid's slot in its name's set
    # ≈ 33 B; nothing of it outlives the transaction
    large = scan_bytes(session, SCAN)
    small = scan_bytes(small_session, SCAN.replace("emp4100", "emp0400"))
    rows = ROWS - ROWS // 4
    assert (large[0] - small[0]) / rows <= 40
    assert (large[1] - small[1]) / rows <= 4


def test_an_indexed_range_select_stays_under_forty_five_hundred_calls(session):
    answer, calls, _frames, by_name, _stats = profiled(session, RANGE)
    assert 50 <= answer <= 100
    assert calls <= 4_500
    assert by_name.get("bind", 0) == 0


def test_a_declarative_result_is_built_without_the_write_path(session):
    session.abort()
    result = session.execute("World!employees select: [:e | e!salary > 88000]")
    assert session.session.write_log == [] and session.session.creations == []
    assert result.oid in session.session.workspace
    assert len(result.elements) == session.execute(
        "(World!employees select: [:e | e!salary > 88000]) size"
    ) > 20
