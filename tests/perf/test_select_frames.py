"""A count, not a time: function calls per declarative select.

A session used to answer the batch executor one row at a time: every
member of a scanned collection cost about ten Python frames to be
dereferenced and ten more to have one element read, and every result
row went through the whole ``bind`` write path.  The bulk hooks took the
per-row frames out; these bounds keep them out.  They are upper bounds
under ``cProfile`` (which also counts calls of builtins), loose enough
for any supported interpreter and far below the per-row cost:

====================  ==========  ========  =========
select (4 000 rows)   per row     bulk      bound
====================  ==========  ========  =========
unindexed scan        101 000     ≈ 5 000   50 000
indexed range, ≈ 75   6 400       ≈ 2 000   4 500
====================  ==========  ========  =========
"""

import cProfile
import pstats
import random

import pytest

from repro import GemStone

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


@pytest.fixture(scope="module")
def session():
    database = GemStone.create()
    loader = database.login()
    loader.execute("Object subclass: #Employee instVarNames: #(name salary)")
    rng = random.Random(2026)
    employees = loader.new("Bag")
    for i in range(ROWS):
        employee = loader.new(
            "Employee", name=f"emp{i:04d}", salary=rng.randrange(10_000, 90_000)
        )
        loader.session.add_members(employees, [employee])
    loader.assign("employees", employees)
    loader.commit()
    database.create_directory(database.store.object(employees.oid), "salary")
    loader.close()
    with database.login() as opened:
        yield opened


def profiled(session, source):
    """(answer, total calls, calls by function name) of one warm run."""
    session.execute(source)  # compile, translate and plan outside the count
    session.abort()
    profile = cProfile.Profile()
    profile.enable()
    answer = session.execute(source)
    profile.disable()
    stats = pstats.Stats(profile)
    by_name: dict[str, int] = {}
    for (path, _line, name), (_cc, calls, *_rest) in stats.stats.items():
        if "concurrency/sessions.py" in path:
            by_name[name] = by_name.get(name, 0) + calls
    return answer, stats.total_calls, by_name


def test_a_scan_select_stays_under_fifty_thousand_calls(session):
    answer, calls, by_name = profiled(session, SCAN)
    assert answer == 2
    assert calls <= 50_000
    assert by_name.get("bind", 0) == 0
    # a frame per row is exactly what must not come back
    assert by_name.get("object", 0) < 10 and by_name.get("value_at", 0) < 10


def test_an_indexed_range_select_stays_under_forty_five_hundred_calls(session):
    answer, calls, by_name = profiled(session, RANGE)
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
