"""The two-sided range probe: ``lo <= e!p & e!p < hi`` is one bracket.

The optimizer pairs a range conjunct with the first conjunct bounding
the same directory path from the other side and emits one
``IndexRange(low=…, high=…)``; finding (b) of ``benchmarks/e2e/README.md``
was that it used to probe one bound and filter everything beyond it.

The property test generates small histories through the differential
oracle's own machinery (:class:`~repro.check.materialize.CaseEnv` builds
the real store, its directory and the naive shadow in lockstep) and
demands that the merged probe return exactly what
:mod:`repro.check.reference` returns — for every pair of ordering
operators, odd bounds, members that share a key or have none, and a time
dial on either side of the directory's build time.
"""

import operator

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.check.materialize import CaseEnv, canon_shadow
from repro.check.reference import evaluate_reference
from repro.check.spec import CaseSpec, CollectionSpec, QuerySpec
from repro.concurrency import SessionObjectManager, TransactionManager
from repro.core import MemoryObjectManager
from repro.directories import DirectoryManager
from repro.opal import OpalEngine
from repro.storage import DiskGeometry, SimulatedDisk, StableStore
from repro.stdm import (
    Const,
    Filter,
    IndexRange,
    QueryContext,
    SetQuery,
    optimize,
    variables,
)
from repro.stdm.algebra import collect_operators
from repro.stdm.calculus import Compare

ORDERINGS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
LOWER = (">", ">=")

#: a bound whose path does not resolve: no-value, without naming ``e``
MISSING_PATH = ("path", ("coll", 0), (("nowhere", None),))

FAMILIES = {
    "int": st.integers(0, 5),
    "str": st.sampled_from(["a", "b", "c", "d"]),
}


def bounds(family):
    """Mostly values the members could hold, so brackets often catch
    some; sometimes the other type, nil, or a path that is not there."""
    other = FAMILIES["str" if family == "int" else "int"]
    same = FAMILIES[family].map(lambda v: ("const", v))
    odd = st.one_of(
        other.map(lambda v: ("const", v)),
        st.just(("const", None)),
        st.just(MISSING_PATH),
    )
    return st.integers(0, 7).flatmap(lambda roll: odd if roll == 0 else same)


@st.composite
def histories(draw):
    """One collection with a ``v`` field of one scalar type (some members
    without a value, several sharing one), two epochs of churn, and a
    directory on ``v`` built at epoch 1, so epoch 0 predates it; plus
    two bounds to bracket it with."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    held = FAMILIES[family]
    size = draw(st.integers(2, 7))
    slots = st.integers(0, size - 1)
    initial = draw(st.lists(held, min_size=size, max_size=size))
    valueless = draw(st.sets(slots, max_size=2))
    absent = draw(st.sets(slots, max_size=2))
    mutations = []
    for epoch in (1, 2):
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                mutations.append(
                    ("member", epoch, 0, draw(slots), draw(st.booleans()))
                )
            else:  # a scalar field is never re-bound to nil
                mutations.append(
                    ("field", epoch, 0, draw(slots), "v", draw(held))
                )
    collection = CollectionSpec(
        cid=0,
        size=size,
        fields=(("v", family),),
        initial_members=tuple(i for i in range(size) if i not in absent),
        initial_values=tuple(
            (i, "v", value) for i, value in enumerate(initial)
            if i not in valueless
        ),
    )
    spec = CaseSpec(
        seed=0, index=0, n_epochs=2, collections=(collection,),
        mutations=tuple(mutations), dir_events=(("create", 1, 0, "v"),),
        queries=(),
    )
    return spec, draw(bounds(family)), draw(bounds(family))


def conjunct(op, bound, flip):
    path = ("path", ("var", "e"), (("v", None),))
    if flip:  # `bound op' e!v`, the mirrored spelling of the same conjunct
        return ("cmp", FLIPPED[op], bound, path)
    return ("cmp", op, path, bound)


def rank(value):
    """The directory's documented key order: numbers before strings."""
    return (isinstance(value, str), value)


def by_rank(env, time, conjuncts):
    """Members inside the bracket under the type-rank order, for the
    brackets Python itself refuses to order (``3 < 'b'``)."""
    rows = []
    for member in env.shadow.members(0, time):
        value = env.shadow.value_at(member, "v", time)
        if isinstance(value, (int, str)) and all(
            ORDERINGS[op](rank(value), rank(bound[1]))
            for op, bound in conjuncts
        ):
            rows.append(canon_shadow(member))
    return sorted(rows)


def counted_range(directory):
    """Make *directory* log every member oid its ``range`` yields."""
    yielded = []
    real_range = directory.range

    def counting_range(*args, **kwargs):
        for oid in real_range(*args, **kwargs):
            yielded.append(oid)
            yield oid

    directory.range = counting_range
    return yielded


@settings(
    max_examples=400, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    history=histories(),
    first=st.tuples(st.sampled_from(sorted(ORDERINGS)), st.booleans()),
    second=st.tuples(st.sampled_from(sorted(ORDERINGS)), st.booleans()),
    at_epoch=st.sampled_from([0, 1, 2, None]),
)
def test_merged_probe_agrees_with_the_reference(
    history, first, second, at_epoch
):
    spec, bound_a, bound_b = history
    env = CaseEnv(spec)
    env.apply_epoch(1)
    env.apply_epoch(2)
    directory = env.directory_manager.find_directory(env.coll_objs[0].oid, "v")
    yielded = counted_range(directory)
    (op1, flip1), (op2, flip2) = first, second
    two_sided = (op1 in LOWER) != (op2 in LOWER)
    time = env.time_of_epoch(at_epoch)
    # both ways round, so one of the two is never an inverted bracket
    for bound1, bound2 in ((bound_a, bound_b), (bound_b, bound_a)):
        query = QuerySpec(
            binders=(("e", ("coll", 0)),),
            condition=(
                "and",
                conjunct(op1, bound1, flip1), conjunct(op2, bound2, flip2),
            ),
            result=("var", "e"), at_epoch=at_epoch, eval_epochs=(2,),
        )
        try:
            expected = sorted(
                canon_shadow(row)
                for row in evaluate_reference(env.shadow, query, time)
            )
        except TypeError:
            # nil, or a bound of the other type than the members: the
            # scan raises too, so only the bracket probe has an answer
            assume(two_sided)
            if {MISSING_PATH, ("const", None)} & {bound1, bound2}:
                expected = []  # no-value and nil bounds match nothing
            else:
                expected = by_rank(env, time, [(op1, bound1), (op2, bound2)])

        plan, choices = optimize(env.compile_query(query), env.directory_manager)
        operators = collect_operators(plan)
        probe, = [op for op in operators if isinstance(op, IndexRange)]
        if two_sided:
            assert probe.low is not None and probe.high is not None
            assert len(choices[0].conjuncts) == 2
            assert not any(isinstance(op, Filter) for op in operators)
            low_op, high_op = (op1, op2) if op1 in LOWER else (op2, op1)
            assert probe.include_low == (low_op == ">=")
            assert probe.include_high == (high_op == "<=")
        else:
            assert len(choices[0].conjuncts) == 1

        del yielded[:]
        before = directory.historical_lookups
        rows = sorted(
            env.canon_real(row)
            for row in plan.run(env.context(at_epoch))
        )
        assert rows == expected
        if two_sided:
            assert len(yielded) == len(rows)  # entries examined = results
        if at_epoch == 0 and rows:
            # the dial predates the build: answered from the history,
            # not from a tree that knows nothing about that state
            assert directory.historical_lookups > before


# -- the optimizer's pairing rule ---------------------------------------------


@pytest.fixture
def indexed(acme):
    dm = DirectoryManager(acme.om)
    dm.create_directory(acme.employees, "Salary")
    return dm


def names_where(acme, dm, condition):
    e, = variables("e")
    query = SetQuery(
        result=e.path("Name!Last"),
        binders=[(e, Const(acme.employees))],
        condition=condition,
    )
    plan, choices = optimize(query, dm)
    return plan, choices, sorted(plan.run(QueryContext(acme.om, None, dm)))


class TestPairing:
    def test_each_side_keeps_its_own_inclusivity(self, acme, indexed):
        salary = variables("e")[0].path("Salary")
        plan, choices, names = names_where(
            acme, indexed, (salary >= 24000) & (salary < 30000)
        )
        assert names == ["Burns", "Peters"]
        probe, = [o for o in collect_operators(plan) if isinstance(o, IndexRange)]
        assert (probe.include_low, probe.include_high) == (True, False)
        assert "[24000, 30000)" in probe.describe()
        assert "[24000, 30000)" in plan.explain()
        assert choices[0].kind == "range" and len(choices[0].conjuncts) == 2

    def test_reversed_spellings_pair_too(self, acme, indexed):
        salary = variables("e")[0].path("Salary")
        plan, _, names = names_where(
            acme, indexed, (Const(30000) >= salary) & (Const(24000) < salary)
        )
        assert names == ["Burns", "Earner"]
        probe, = [o for o in collect_operators(plan) if isinstance(o, IndexRange)]
        assert "(24000, 30000]" in probe.describe()

    def test_one_sided_probe_shows_its_open_side(self, acme, indexed):
        salary = variables("e")[0].path("Salary")
        plan, _, _ = names_where(acme, indexed, salary > 24500)
        probe, = [o for o in collect_operators(plan) if isinstance(o, IndexRange)]
        assert "(24500, +inf]" in probe.describe()

    def test_extra_same_side_conjunct_stays_a_filter(self, acme, indexed):
        salary = variables("e")[0].path("Salary")
        plan, choices, names = names_where(
            acme, indexed,
            (salary > 1) & (salary > 24500) & (salary <= 30000),
        )
        assert names == ["Burns", "Earner"]
        assert len(choices[0].conjuncts) == 2
        filters = [o for o in collect_operators(plan) if isinstance(o, Filter)]
        assert len(filters) == 1 and "24500" in filters[0].describe()

    def test_pinned_step_is_not_paired(self, acme, indexed):
        e, = variables("e")
        plan, choices, _ = names_where(
            acme, indexed,
            (e.path("Salary") > 1) & (e.path("Salary@1") < 10**9),
        )
        assert len(choices[0].conjuncts) == 1
        assert any(isinstance(o, Filter) for o in collect_operators(plan))

    def test_another_path_is_not_paired(self, acme, indexed):
        e, = variables("e")
        _, choices, names = names_where(
            acme, indexed,
            (e.path("Salary") > 1) & (e.path("Name!Last") < "Cz"),
        )
        assert len(choices[0].conjuncts) == 1
        assert names == ["Burns"]

    def test_bound_over_a_later_variable_is_not_paired(self, acme, indexed):
        e, d = variables("e", "d")
        query = SetQuery(
            result=e.path("Name!Last"),
            binders=[(e, Const(acme.employees)), (d, Const(acme.departments))],
            condition=(e.path("Salary") > 24500)
            & (e.path("Salary") < d.path("Budget")),
        )
        plan, choices = optimize(query, indexed)
        assert len(choices[0].conjuncts) == 1
        probe, = [o for o in collect_operators(plan) if isinstance(o, IndexRange)]
        assert probe.high is None
        assert sorted(plan.run(QueryContext(acme.om))) == [
            "Burns", "Burns", "Earner", "Earner",
        ]


class TestEdges:
    """Brackets nothing can lie in never reach the tree."""

    @pytest.fixture
    def no_tree_walk(self, acme, indexed, monkeypatch):
        directory = indexed.find_directory(acme.employees.oid, "Salary")

        def refuse(*_args, **_kwargs):
            raise AssertionError("an empty bracket walked the tree")

        monkeypatch.setattr(directory.tree, "range_leaves", refuse)
        monkeypatch.setattr(directory.tree, "_find_leaf", refuse)

    @pytest.mark.parametrize("low_op, low, high_op, high", [
        (">=", 30000, "<=", 24000),   # lo > hi
        (">", 24000, "<=", 24000),    # lo == hi, exclusive low
        (">=", 24000, "<", 24000),    # lo == hi, exclusive high
        (">=", "zz", "<=", 24000),    # lo ranks after hi
        (">=", None, "<=", 30000),    # nil bound
        (">=", [1], "<=", 30000),     # a bound no directory can key
    ])
    def test_empty_brackets(
        self, acme, indexed, no_tree_walk, low_op, low, high_op, high
    ):
        salary = variables("e")[0].path("Salary")
        _, choices, names = names_where(
            acme, indexed,
            Compare(low_op, salary, Const(low))
            & Compare(high_op, salary, Const(high)),
        )
        assert len(choices[0].conjuncts) == 2
        assert names == []

    def test_single_key_bracket(self, acme, indexed):
        salary = variables("e")[0].path("Salary")
        _, _, names = names_where(
            acme, indexed, (salary >= 24000) & (salary <= 24000)
        )
        assert names == ["Peters"]

    def test_int_and_float_bounds_share_a_rank(self, acme, indexed):
        salary = variables("e")[0].path("Salary")
        _, _, names = names_where(
            acme, indexed, (salary > 23999.5) & (salary <= 24650)
        )
        assert names == ["Burns", "Peters"]


def test_bounds_over_an_outer_variable_are_read_per_row():
    """Each outer row brings its own bracket.  The probe reads the bounds
    as columns, and the high one only where the low one has a value — as
    a row that fails its low bound never asks for its high one."""
    stable = StableStore.format(
        SimulatedDisk(DiskGeometry(track_count=4096, track_size=1024))
    )
    session = SessionObjectManager(stable, TransactionManager(stable))
    employees = session.instantiate("Object")
    for i in range(40):
        session.bind(
            employees, session.new_alias(),
            session.instantiate("Object", Salary=i * 10),
        )
    # (low, high); None: no such element.  Consecutive twins reuse a
    # probe, an inverted pair is empty, a missing bound matches nothing
    specs = [(50, 120), (50, 120), (None, 90), (300, None), (200, 100),
             (0, 400), (130, 131), (None, None), (390, 1000)]
    brackets = session.instantiate("Object")
    for low, high in specs:
        elements = {"Low": low, "High": high}
        bracket = session.instantiate("Object", **{
            name: value for name, value in elements.items() if value is not None
        })
        session.bind(brackets, session.new_alias(), bracket)
    session.commit()
    dm = DirectoryManager(stable)
    dm.create_directory(stable.object(employees.oid), "Salary")
    e, d = variables("e", "d")
    query = SetQuery(
        result={"d": d, "e": e},
        binders=[(d, Const(brackets)), (e, Const(employees))],
        condition=(e.path("Salary") >= d.path("Low"))
        & (e.path("Salary") < d.path("High")),
    )
    plan, choices = optimize(query, dm)
    probe, = [op for op in collect_operators(plan) if isinstance(op, IndexRange)]
    assert probe.low is not None and probe.high is not None
    assert not any(isinstance(op, Filter) for op in collect_operators(plan))

    session.reads.clear()
    rows = plan.run(QueryContext(session, None, dm))
    read = {(oid, str(name)) for oid, name in session.read_pairs()}

    def plain(rows):
        return [(row["d"].oid, row["e"].oid) for row in rows]

    expected = query.evaluate(QueryContext(session))
    assert sorted(plain(rows)) == sorted(plain(expected))
    assert len(rows) == 7 + 7 + 40 + 1 + 1
    members = session.members_of(brackets)
    assert read == {(b.oid, "Low") for b in members} | {
        (b.oid, "High") for (low, _), b in zip(specs, members) if low is not None
    }


def test_between_and_is_one_probe_through_opal():
    store = MemoryObjectManager()
    dm = DirectoryManager(store)
    engine = OpalEngine(store, directory_manager=dm)
    engine.execute("""
        | b | b := Bag new.
        1 to: 40 do: [:i | | o | o := Object new. o!n := i. b add: o].
        World!things := b
    """)
    directory = dm.create_directory(engine.execute("World!things"), "n")
    yielded = counted_range(directory)
    size = engine.execute(
        "(World!things select: [:o | o!n between: 10 and: 14]) size"
    )
    assert size == 5
    assert len(yielded) == 5
