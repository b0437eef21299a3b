"""The compiled-block cache: one compile per shape, never a stale answer.

``OpalEngine.execute`` keeps the blocks a host sends, keyed on (the
shape of the text — its tokens with the literals lifted out — and the
binding names), in its session store's ``StoreCaches``.  A hit reuses
the compiled block and everything hanging on it — inline caches, the
select-block translation and plan memos — so these tests first show the
memos firing for ad-hoc text whatever its literals (finding (d) of
``benchmarks/e2e/README.md``), then change the world under a cached
shape every way the system allows and demand the new behaviour on the
very next run, of the same text and of the same shape with other
literals.
"""

import pytest

from repro import GemStone
from repro.errors import GemStoneError
from repro.obs import render_block
from repro.opal.compiler import Compiler
from repro.opal.declarative import COMPILE_CACHE_MAX
from repro.opal.lexer import Lexer
from repro.stdm.optimize import planning_stats

SELECT = "(World!emps select: [:e | (e!salary >= 30) & (e!salary < 70)]) size"
RAISE = "| e | e := World!emps detect: [:x | x!salary = 50]. e!salary := 500"


@pytest.fixture
def database():
    db = GemStone.create()
    with db.login() as loader:
        loader.execute("""
            Object subclass: #Emp instVarNames: #(name salary).
            Emp compile: 'bonus ^salary // 10'.
            | b | b := Bag new.
            1 to: 10 do: [:i | | e |
                e := Emp new. e!salary := i * 10. e!name := 'n'. b add: e].
            World!emps := b
        """)
        loader.commit()
    return db


@pytest.fixture
def session(database):
    with database.login() as opened:
        yield opened


def compile_cache(session):
    return session.perf_stats()["compile_cache"]


def count_compiles(monkeypatch):
    calls = []
    real = Compiler.compile_source

    def counted(self, source, extra_names=()):
        calls.append(source)
        return real(self, source, extra_names)

    monkeypatch.setattr(Compiler, "compile_source", counted)
    return calls


class TestCompileOnce:
    def test_repeated_text_compiles_once_and_builds_one_plan(
        self, session, monkeypatch
    ):
        compiles = count_compiles(monkeypatch)
        runs = 6
        built_before = planning_stats["plans_built"]
        assert [session.execute(SELECT) for _ in range(runs)] == [4] * runs
        assert len(compiles) == 1
        assert planning_stats["plans_built"] == built_before + 1
        stats = session.perf_stats()
        assert stats["compile_cache"]["hits"] == runs - 1
        assert stats["compile_cache"]["misses"] == 1
        assert stats["compile_cache"]["entries"] == 1
        assert stats["translation_cache"]["hits"] == runs - 1
        assert stats["plan_cache"]["hits"] == runs - 1
        assert stats["plan_cache"]["misses"] == 1

    def test_binding_names_are_part_of_the_key(self, session):
        assert session.execute("a + 1", {"a": 1}) == 2
        assert session.execute("a + 1", {"a": 5}) == 6  # values are not
        assert compile_cache(session)["entries"] == 1
        # same text, another slot layout: `a` must not read `b`'s slot
        assert session.execute("a + 1", {"b": 100, "a": 1}) == 2
        assert compile_cache(session)["entries"] == 2

    def test_sessions_never_share_an_entry(self, database):
        with database.login() as one, database.login() as two:
            assert one.execute(SELECT) == 4
            assert two.execute(SELECT) == 4
            assert compile_cache(two)["hits"] == 0
            assert compile_cache(two)["misses"] == 1
            held_by_one, = one.session.perf.compile_entries.values()
            held_by_two, = two.session.perf.compile_entries.values()
            assert held_by_one is not held_by_two
        totals = database.obs.session_cache_totals()["compile_cache"]
        assert totals["misses"] >= 2 and totals["entries"] == 0  # both closed

    def test_disabled_perf_compiles_every_time(self, session, monkeypatch):
        compiles = count_compiles(monkeypatch)
        session.session.perf.enabled = False
        assert [session.execute(SELECT) for _ in range(3)] == [4, 4, 4]
        assert compiles == [SELECT] * 3
        assert compile_cache(session) == {
            "entries": 0, "hits": 0, "misses": 0, "hit_rate": 0.0,
        }


class TestBound:
    def test_capacity_plus_one_texts_evict_the_least_recently_used(
        self, session
    ):
        texts = ["1" + " + 1" * i for i in range(COMPILE_CACHE_MAX)]
        for text in texts:
            session.execute(text)
        session.execute(texts[0])  # touch: no longer the eviction victim
        session.execute("0 - 1")  # the capacity + 1st shape
        entries = session.session.perf.compile_entries
        assert len(entries) == COMPILE_CACHE_MAX
        assert (Lexer(texts[0]).shape, ()) in entries
        assert (Lexer(texts[1]).shape, ()) not in entries
        assert session.execute(texts[1]) == 2  # evicted shape still runs

    def test_entries_never_exceed_the_bound(self, session):
        held = session.session.perf.compile_entries
        for i in range(3 * COMPILE_CACHE_MAX):
            assert session.execute("0" + " + 1" * i) == i
            assert len(held) <= COMPILE_CACHE_MAX
        assert len(held) == COMPILE_CACHE_MAX

    def test_a_syntax_error_is_raised_again_not_cached(
        self, session, monkeypatch
    ):
        compiles = count_compiles(monkeypatch)
        for _ in range(2):
            with pytest.raises(GemStoneError):
                session.execute("World!emps select: [:e | ")
        # each attempt: the lifted tokens, then the text as written for
        # the message
        assert len(compiles) == 4
        assert compile_cache(session)["entries"] == 0

    def test_a_compile_error_quotes_the_text_as_written(self, session):
        with pytest.raises(GemStoneError, match="<INTEGER 4 @1:4>"):
            session.execute("(3 4")
        with pytest.raises(GemStoneError, match=r"\('a', 'a'\)"):
            session.execute("| a a | 3")


class TestCoherence:
    """Same text, changed world: the next run sees the change."""

    def test_method_redefinition(self, session):
        text = "(World!emps detect: [:e | e!salary = 50]) bonus"
        assert session.execute(text) == 5
        assert session.execute(text) == 5  # warm inline cache on `bonus`
        session.execute("Emp compile: 'bonus ^salary // 5'")
        assert session.execute(text) == 10

    def test_getter_redefinition_retranslates_the_select_block(self, session):
        # `e salary` is an element fetch only while no class gives the
        # selector another meaning; the memoized translation must go
        text = "(World!emps select: [:e | e salary >= 90]) size"
        assert session.execute(text) == 2
        session.execute("Emp compile: 'salary ^salary * 2'")
        assert session.execute(text) == 6

    def test_directory_create_and_drop_replan(self, database, session):
        def plan_of_next_run():
            database.obs.slow_queries.clear()
            assert session.execute(SELECT) == 4
            entry, = database.obs.slow_queries.slowest()
            return entry

        assert any("BindScan" in s for s in plan_of_next_run()["plan"])
        emps = database.store.object(session.execute("World!emps").oid)
        directory = database.create_directory(emps, "salary")
        indexed = plan_of_next_run()
        assert indexed["plan_cache"] == "fresh"
        assert any(
            "IndexRange" in s and "[30, 70)" in s for s in indexed["plan"]
        )
        assert indexed["candidates"] == 4  # entries examined = results
        assert plan_of_next_run()["plan_cache"] == "memo"
        database.directory_manager.drop_directory(directory)
        dropped = plan_of_next_run()
        assert dropped["plan_cache"] == "fresh"
        assert any("BindScan" in s for s in dropped["plan"])

    def test_commit_by_another_session_is_seen(self, database, session):
        assert session.execute(SELECT) == 4
        with database.login() as writer:
            writer.execute(RAISE)
            writer.commit()
        session.abort()  # begin a transaction that can see the commit
        assert session.execute(SELECT) == 3

    def test_own_uncommitted_write_then_abort(self, session):
        assert session.execute(SELECT) == 4
        session.execute(RAISE)
        assert session.execute(SELECT) == 3
        session.abort()
        assert session.execute(SELECT) == 4

    def test_abort_discards_an_overlay_class_the_text_sends_to(self, session):
        text = "Gadget new answer"
        session.execute("""
            Object subclass: #Gadget instVarNames: #().
            Gadget compile: 'answer ^42'
        """)
        assert session.execute(text) == 42
        assert session.execute(text) == 42
        session.abort()
        with pytest.raises(GemStoneError):
            session.execute(text)  # the class died with the transaction
        session.execute("""
            Object subclass: #Gadget instVarNames: #().
            Gadget compile: 'answer ^7'
        """)
        assert session.execute(text) == 7
        session.commit()
        assert session.execute(text) == 7


class TestLiteralsAreNotShared:
    """A cached block's literals outlive the run that first used them."""

    def test_array_literal_survives_the_first_run(self, session):
        text = "| a | a := #(1 2 3). (a , #(4)) size + (a at: 1)"
        assert session.execute(text) == 5
        assert session.execute(text) == 5

    def test_array_literal_in_a_select_block(self, session):
        text = "(World!emps select: [:e | #(10 20) includes: e!salary]) size"
        assert session.execute(text) == 2
        assert session.execute(text) == 2

    def test_string_literal_is_not_mutable_through_a_binding(self, session):
        text = "| s | s := 'abc'. World!scratch := s. (s , 'def') size"
        assert session.execute(text) == 6
        session.execute("World!scratch := (World!scratch) , 'zzz'")
        assert session.execute(text) == 6
        assert session.execute("| s | s := 'abc'. s") == "abc"


def select_shapes(lo, hi, name):
    """The three ``select_mix`` shapes of the benchmark, over ``Emp``."""
    return [
        "(World!emps select: [:e | "
        f"(e!salary >= {lo}) & (e!salary < {hi}) & (e!salary ~= {lo + 1}) "
        f"& (e!salary ~= {hi - 1}) & (e!name ~= 'x{name}')]) size",
        "(World!emps select: [:e | "
        f"(e!name = '{name}') | (e!name = 'x{name}')]) size",
        f"(World!emps select: [:e | e!salary > {hi}]) size",
    ]


class TestOneEntryPerShape:
    """Literals are not part of the key: the benchmark's key spaces."""

    def test_2000_world_reads_are_one_entry(self, session):
        for i in range(2000):
            session.execute(f"World!k{i:04d} := {i}")
        session.session.perf.compile_entries.clear()
        session.session.perf.reset_stats()
        for i in range(2000):
            assert session.execute(f"World!k{i:04d}") == i
        assert compile_cache(session) == {
            "entries": 1, "hits": 1999, "misses": 1, "hit_rate": 1999 / 2000,
        }

    def test_10000_literal_variants_of_three_shapes_are_three_entries(
        self, database, session
    ):
        emps = database.store.object(session.execute("World!emps").oid)
        database.create_directory(emps, "salary")
        session.session.perf.compile_entries.clear()
        session.session.perf.reset_stats()
        built_before = planning_stats["plans_built"]
        salaries = [i * 10 for i in range(1, 11)]
        for i in range(3334):
            lo, hi = 10 + i % 50, 40 + i % 61
            expected = [
                sum(lo <= s < hi and s != lo + 1 and s != hi - 1
                    for s in salaries),
                0 if i % 7 else 10,
                sum(s > hi for s in salaries),
            ]
            name = f"m{i}" if i % 7 else "n"
            for text, count in zip(select_shapes(lo, hi, name), expected):
                assert session.execute(text) == count, text
        stats = session.perf_stats()
        assert stats["compile_cache"]["entries"] == 3
        assert stats["compile_cache"]["misses"] == 3
        assert stats["compile_cache"]["hits"] == 3 * 3334 - 3
        assert stats["plan_cache"]["misses"] <= 3
        assert stats["translation_cache"]["misses"] <= 3
        assert planning_stats["plans_built"] - built_before <= 3

    def test_literal_types_are_part_of_the_shape(self, session):
        # `x!3.5` is a parse error where `x!3` is a path; a float must
        # not be served the block an integer compiled
        session.execute("World!k := 7")
        assert session.execute("World!k + 1") == 8
        assert session.execute("World!k + 1.5") == 8.5
        assert session.execute("World!k + 2") == 9
        assert compile_cache(session)["entries"] == 3  # :=, + int, + float
        session.execute("World!'k'")
        with pytest.raises(GemStoneError):
            session.execute("World!1.5")

    def test_what_stays_in_the_shape(self, session):
        held = session.session.perf.compile_entries
        for text in (
            "#(1 2) size", "#(1 3) size",       # literal arrays
            "#a size", "#b size",               # symbols
            "$a value", "$b value",             # characters
            "World!emps@1", "World!emps@2",     # time pins
            "[:e | e!salary] numArgs", "[:e | e!name] numArgs",  # in-block paths
        ):
            before = len(held)
            session.execute(text)
            assert len(held) == before + 1, text


class TestCoherenceAcrossLiterals:
    """The world changes between two texts of one shape: the second
    text, never compiled itself, still sees the change."""

    def test_method_redefinition(self, session):
        text = "(World!emps detect: [:e | e!salary = {}]) bonus"
        assert session.execute(text.format(50)) == 5
        session.execute("Emp compile: 'bonus ^salary // 5'")
        assert session.execute(text.format(60)) == 12

    def test_getter_redefinition_retranslates(self, session):
        text = "(World!emps select: [:e | e salary >= {}]) size"
        assert session.execute(text.format(90)) == 2
        session.execute("Emp compile: 'salary ^salary * 2'")
        assert session.execute(text.format(100)) == 6

    def test_new_directory_replans(self, database, session):
        text = "(World!emps select: [:e | e!salary > {}]) size"

        def plan_of(bound, count):
            database.obs.slow_queries.clear()
            assert session.execute(text.format(bound)) == count
            entry, = database.obs.slow_queries.slowest()
            return entry

        assert any("BindScan" in s for s in plan_of(40, 6)["plan"])
        emps = database.store.object(session.execute("World!emps").oid)
        database.create_directory(emps, "salary")
        indexed = plan_of(70, 3)
        assert indexed["plan_cache"] == "fresh"
        assert any("IndexRange" in s and "(70, +inf]" in s
                   for s in indexed["plan"])
        assert plan_of(80, 2)["plan_cache"] == "memo"


class TestReportingPrintsThisExecution:
    """One block and one plan per shape — the slow-query log must still
    show each execution its own literals."""

    def test_two_probes_with_different_bounds(self, database, session):
        emps = database.store.object(session.execute("World!emps").oid)
        database.create_directory(emps, "salary")
        text = "(World!emps select: [:e | (e!salary > {}) & (e!name = '{}')]) size"
        assert session.execute(text.format(30, "n")) == 7
        assert session.execute(text.format(80, "it''s")) == 0
        second, first = sorted(
            database.obs.slow_queries.slowest(),
            key=lambda entry: entry["result_count"],
        )
        assert first["source"] == "[:e | (e!salary > 30) & (e!name = 'n')]"
        assert second["source"] == "[:e | (e!salary > 80) & (e!name = 'it''s')]"
        assert second["plan_cache"] == "memo"  # the first probe's plan
        assert any("(30, +inf]" in line for line in first["plan"])
        assert any("(80, +inf]" in line for line in second["plan"])
        assert any('''"it's"''' in line for line in second["plan"])
        for entry in (first, second):
            # each rendering is itself OPAL: it parses, and unparses to itself
            closure = session.execute(entry["source"])
            assert render_block(
                closure.compiled.ast, closure.literals
            ) == entry["source"]
