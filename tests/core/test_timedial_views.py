"""Unit tests for the time dial and views."""

import pytest

from repro.core import MemoryObjectManager, TimeDial, View
from repro.errors import ViewError


class TestTimeDial:
    def test_defaults_to_now(self):
        dial = TimeDial()
        assert dial.is_now
        assert dial.time is None

    def test_set_and_reset(self):
        dial = TimeDial()
        dial.set(7)
        assert dial.time == 7
        assert not dial.is_now
        dial.reset()
        assert dial.is_now

    def test_at_context_restores(self):
        dial = TimeDial()
        dial.set(3)
        with dial.at(9):
            assert dial.time == 9
        assert dial.time == 3

    def test_at_restores_on_exception(self):
        dial = TimeDial()
        with pytest.raises(RuntimeError):
            with dial.at(9):
                raise RuntimeError("boom")
        assert dial.is_now

    def test_safe_time_provider(self):
        dial = TimeDial(safe_time_provider=lambda: 42)
        assert dial.set_safe() == 42
        assert dial.time == 42

    def test_safe_time_without_provider(self):
        with pytest.raises(RuntimeError):
            TimeDial().set_safe()


@pytest.fixture
def om():
    return MemoryObjectManager()


class TestViews:
    def make_salary_view(self, om, threshold=100):
        emps = om.instantiate("Object")
        for name, salary in [("a", 50), ("b", 150), ("c", 200)]:
            member = om.instantiate("Object", name=name, salary=salary)
            om.bind(emps, om.new_alias(), member)

        def definition(store, time):
            for alias in emps.live_names(time):
                member = store.fetch(emps, alias, time)
                if store.value_at(member, "salary", time) > threshold:
                    yield store.value_at(member, "name", time)

        return emps, View(om, "highEarners", definition, sources=[emps])

    def test_materialize(self, om):
        _, view = self.make_salary_view(om)
        assert sorted(view.materialize()) == ["b", "c"]

    def test_view_is_an_object_with_identity(self, om):
        _, view = self.make_salary_view(om)
        assert om.contains(view.object.oid)
        assert om.value_at(view.object, "name") == "highEarners"

    def test_view_retains_source_connections(self, om):
        emps, view = self.make_salary_view(om)
        assert [s.oid for s in view.sources()] == [emps.oid]

    def test_view_tracks_source_updates(self, om):
        emps, view = self.make_salary_view(om)
        om.tick()
        member = om.instantiate("Object", name="d", salary=999)
        om.bind(emps, om.new_alias(), member)
        assert "d" in view.materialize()

    def test_view_at_past_time(self, om):
        emps, view = self.make_salary_view(om)
        t0 = om.now
        om.tick()
        member = om.instantiate("Object", name="d", salary=999)
        om.bind(emps, om.new_alias(), member)
        assert "d" not in view.materialize(time=t0)

    def test_view_with_dial(self, om):
        emps, view = self.make_salary_view(om)
        t0 = om.now
        om.tick()
        om.bind(emps, om.new_alias(), om.instantiate("Object", name="d", salary=999))
        dial = TimeDial()
        dial.set(t0)
        assert "d" not in view.materialize(dial=dial)

    def test_contains_and_iter(self, om):
        _, view = self.make_salary_view(om)
        assert view.contains("b")
        assert not view.contains("a")
        assert set(iter(view)) == {"b", "c"}

    def test_not_updatable_by_default(self, om):
        _, view = self.make_salary_view(om)
        assert not view.updatable
        with pytest.raises(ViewError):
            view.insert("x")
        with pytest.raises(ViewError):
            view.remove("x")

    def test_updatable_view_translates_inserts(self, om):
        emps = om.instantiate("Object")

        def definition(store, time):
            for alias in emps.live_names(time):
                yield store.fetch(emps, alias, time)

        def on_insert(store, view, member):
            store.bind(emps, store.new_alias(), member)

        view = View(om, "all", definition, sources=[emps], on_insert=on_insert)
        assert view.updatable
        member = om.instantiate("Object", name="x")
        view.insert(member)
        assert member in view.materialize()


# -- the dial and workspace-only objects ----------------------------------


@pytest.fixture
def dialed():
    """A session whose ``World!emps`` held 5 members at ``t1`` and holds
    8 now, dialed back to ``t1``; yields (session, t1)."""
    from repro import GemStone

    session = GemStone.create().login()
    session.execute("Object subclass: #Emp instVarNames: #(salary)")
    session.execute("World at: #emps put: Bag new")
    add = "World!emps add: (Emp new at: #salary put: {}; yourself)"
    for salary in range(100, 105):
        session.execute(add.format(salary))
    t1 = session.commit()
    for salary in range(105, 108):
        session.execute(add.format(salary))
    session.commit()
    session.session.time_dial.set(t1)
    yield session, t1
    session.close()


SELECTED = "(World!emps select: [:e | e!salary > 0])"


class TestDialAndWorkspaceObjects:
    """A workspace-only object has no past: the dial reads committed
    objects as of its time, and a session's own results as they are."""

    def test_the_dial_still_reads_committed_state(self, dialed):
        session, _ = dialed
        assert session.execute("World!emps size") == 5
        session.session.time_dial.reset()
        assert session.execute("World!emps size") == 8

    @pytest.mark.parametrize("source, answer", [
        (f"{SELECTED} size", 5),
        (f"{SELECTED} isEmpty", False),
        (f"{SELECTED} notEmpty", True),
        (f"| n | n := 0. {SELECTED} do: [:e | n := n + 1]. n", 5),
        (f"{SELECTED} detect: [:e | e!salary > 0] ifNone: [#none]", "member"),
        (f"({SELECTED} collect: [:e | e!salary]) size", 5),
        (f"({SELECTED} asSet) size", 5),
        (f"({SELECTED} asBag) size", 5),
        (f"({SELECTED} select: [:e | e!salary > 102]) size", 2),
        (f"({SELECTED} reject: [:e | e!salary > 102]) size", 3),
        ("| b | b := Bag new. b add: 3. b add: 4. b size", 2),
        ("| b | b := Bag new. b add: 3. b includes: 3", True),
        ("| b | b := Bag new. b add: (Emp new at: #salary put: 5; yourself)."
         " (b select: [:e | e!salary > 0]) size", 1),
    ])
    def test_a_result_reads_as_it_is_under_the_dial(self, dialed, source, answer):
        session, _ = dialed
        found = session.execute(source)
        if answer == "member":
            assert session.execute("x!salary", bindings={"x": found}) >= 100
        else:
            assert found == answer

    def test_an_explicit_time_still_reads_the_past(self, dialed):
        session, t1 = dialed
        store = session.session
        result = session.execute(SELECTED)
        for built in (False, True):
            if built:
                assert len(result.elements) == 5  # the column built
            assert store.live_count_of(result) == 5
            assert len(store.members_of(result)) == 5
            assert store.live_count_of(result, t1) == 0
            assert store.members_of(result, t1) == []
            assert list(result.items_at(t1)) == []
