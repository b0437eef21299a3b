"""The predicate kernel and the set nodes, on generated trees.

An ``or`` whose comparisons are all ``=`` between one column — a path,
or the bare variable itself — and row-independent values, under any
number of ``not``s, is evaluated as membership in one key set over that
column (``calculus._fused_column``), and an ``and`` of ``~=`` over one
column as "none of" that key set, failing the rows with no value; every
other tree by the connectives node by node.  Either way
``evaluate_column`` over a batch must say, row for row, what a naive
per-row evaluator written here says — one that
reads each row's value through ``session.value_at`` under the same time
rules and compares with ``value_equal`` and the plain operators, in
``check.reference``'s style — and leave the access records (read pairs,
``enum_reads``) and the fuel count (``ctx.examined``) that the naive
evaluator and node-by-node evaluation leave: the same tree run with the
kernel switched off is the kernel's definition.
Nothing here is an expected value written by hand; hypothesis generates

* trees of ``=``, ``~=``, ``<``, ``<=``, ``>``, ``>=`` under ``&``,
  ``|`` and ``not`` over one to three paths or the bare variable, each
  comparison either way round, each constant a literal or a lifted
  ``Param``;
* constants: ints, floats, bools, strings and symbols, NaN (the very
  NaN object a twin holds, and one decoded from the platter), nil, and
  Refs to objects the elements point at;
* batches of stored members, Refs to them, immediates (whose paths give
  NOVALUE) and NOVALUE itself, over elements that are missing on some
  members;
* a session that reads now, dialled back through its time dial or the
  query's time, and holds workspace twins it has not committed.

Five bugs are known to fail it: four in the kernel (NaN not screened
out of the key set, ``True`` / ``1`` keyed apart, a negated run failing
the rows with no value — ``not (x = c)`` taken for ``x ~= c`` — and an
``and`` of ``~=`` letting them through, its guard dropped) and one in
``Compare``'s plain path (a no-value row let through it).

The set nodes — ``In``, ``Subset``, ``Exists`` and ``ForAll`` — read
their operands as columns but walk each row's members one at a time, so
on the same world a batch must answer what each row alone answers, with
the same reads, ``enum_reads``, fuel and exception type.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency import Authorizer, SessionObjectManager, TransactionManager
from repro.core import GemObject, Ref
from repro.core.history import MISSING
from repro.core.values import Symbol
from repro.errors import CalculusError
from repro.stdm import calculus
from repro.stdm.calculus import (
    NOVALUE,
    And,
    BindingBatch,
    Compare,
    Const,
    Exists,
    ForAll,
    In,
    Not,
    Or,
    Param,
    PathApply,
    QueryContext,
    Subset,
    Var,
    value_equal,
)
from repro.storage import DiskGeometry, SimulatedDisk, StableStore

NAN = float("nan")
NUMBERS = [0, 1, -1, 2, 0.0, 1.0, 2.5, -0.5, True, False, NAN]
STRINGS = ["a", "b", "ab", "", Symbol("a")]
PATHS = ("n", "s", "m")  # numbers, strings, a mix of everything
SELF = ""  # no path: the comparison reads the bare variable
OPS = ("==", "!=", "<", "<=", ">", ">=")
MEMBERS = 24
MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


class World:
    """A committed history under a session that holds twins."""

    def __init__(self):
        rng = random.Random(25)
        self.store = StableStore.format(
            SimulatedDisk(DiskGeometry(track_count=2048, track_size=1024))
        )
        self.tm = TransactionManager(self.store)
        auth = Authorizer()
        dba = auth.authenticate("DataCurator", "swordfish")
        loader = SessionObjectManager(self.store, self.tm, user=dba, authorizer=auth)
        targets = [loader.instantiate("Object", title=f"t{i}") for i in range(3)]
        self.refs = [Ref(target.oid) for target in targets]
        mixed = NUMBERS + STRINGS + [None, *self.refs]
        members = []
        for _ in range(MEMBERS):
            elements = {}
            for path, pool in (("n", NUMBERS), ("s", STRINGS), ("m", mixed)):
                if rng.random() < 0.8:  # the rest have no such element
                    elements[path] = rng.choice(pool)
            members.append(loader.instantiate("Object", **elements).oid)
        self.times = [loader.commit()]
        for _ in range(2):
            for oid in rng.sample(members, 8):
                path = rng.choice(PATHS)
                pool = {"n": NUMBERS, "s": STRINGS, "m": mixed}[path]
                loader.bind(oid, path, rng.choice(pool))
            self.times.append(loader.commit())
        nan_holder = loader.instantiate("Object", n=NAN)
        self.times.append(loader.commit())
        self.collections = self._collections(loader, members, mixed)
        loader.close()
        # the cache keeps the loader's values, so the members hold the very
        # NaN the constants do (a set lookup matches an identical object
        # first); this one is decoded from the platter, a NaN of its own
        self.store.cache.evict(nan_holder.oid)
        self.stored_nan = self.store.object(nan_holder.oid).value_at("n", None)
        assert self.stored_nan is not NAN

        self.session = SessionObjectManager(self.store, self.tm, user=dba, authorizer=auth)
        # uncommitted twins
        for oid, path, value in zip(
            members[::2],
            ("n", "m", "n", "s", "m", "n", "m", "s", "n", "m", "n", "n"),
            (NAN, NAN, True, "b", 1, False, self.refs[0], Symbol("ab"), NAN, True,
             1.0, 0),
        ):
            self.session.bind(oid, path, value)
        # and twin collections: one member's set rebound, another's grown
        self.session.bind(members[3], "c", self.collections[0])
        self.session.add_members(
            self.session.object(self.collections[1].oid), [self.refs[1], 2]
        )
        self.members = members
        # each family's values, and the edges a kernel must get right
        # (drawn half the time): NaN, True / 1 / 1.0, NOVALUE's look-alike
        # nil, symbols against strings, Refs against the objects they name
        edges = [NAN, self.stored_nan, True, 1, 1.0, False, 0]
        self.constants = {
            "numbers": (NUMBERS, edges),
            "strings": (STRINGS, ["a", Symbol("a"), ""]),
            # a Ref to a member: what a bare variable's row can equal
            "all": (
                NUMBERS + STRINGS + [None, *self.refs, Ref(members[1])],
                edges + [None, *self.refs, Ref(members[1])],
            ),
        }

    def _collections(self, loader, members, mixed):
        """Give most members a set of values (``c``) and a set of members
        (``o``), churned over two commits so ``@T`` reads older sets;
        returns the sets of values."""
        rng = random.Random(27)
        held = [value for value in mixed if value is not None]  # nil is no member
        sets = []
        for _ in range(6):
            values = loader.instantiate("Object")
            loader.add_members(values, rng.sample(held, rng.randrange(0, 5)))
            sets.append(values)
        loader.add_members(sets[1], [1, "a"])
        peers = [loader.instantiate("Object") for _ in range(4)]
        for peer in peers:
            drawn = rng.sample(members, rng.randrange(0, 4))
            loader.add_members(peer, [Ref(oid) for oid in drawn])
        self.set_times = []
        for _ in range(2):
            for oid in members:
                if rng.random() < 0.8:
                    loader.bind(oid, "c", rng.choice(sets))
                if rng.random() < 0.8:
                    loader.bind(oid, "o", rng.choice(peers))
            self.set_times.append(loader.commit())
        return sets


WORLD = World()


def leaves(paths, constants, ops=OPS):
    """A comparison of one path with one constant, either way round."""
    return st.tuples(
        st.sampled_from(ops),
        st.sampled_from(paths),
        st.one_of(*map(st.sampled_from, constants)),
        st.booleans(),  # lifted into a Param
        st.booleans(),  # written constant first
    )


@st.composite
def runs(draw, paths, constants, mixed=False):
    """An ``or`` of ``=`` or an ``and`` of ``~=`` over one path, perhaps
    negated: the shapes the kernel takes — or, *mixed*, the same with one
    leaf on another column, which it must refuse."""
    path = draw(st.sampled_from(paths))
    connective, op = draw(st.sampled_from((("or", "=="), ("and", "!="))))
    items = draw(st.lists(leaves([path], constants, (op,)), min_size=2, max_size=4))
    if mixed:
        at = draw(st.integers(0, len(items) - 1))
        other = draw(st.sampled_from([p for p in (*PATHS, SELF) if p != path]))
        items[at] = (op, other, *items[at][2:])
    while len(items) > 1:  # associate at a drawn place each time
        at = draw(st.integers(0, len(items) - 2))
        items[at:at + 2] = [(connective, items[at], items[at + 1])]
    return ("not", items[0]) if draw(st.booleans()) else items[0]


def trees(paths, constants):
    return st.recursive(
        st.one_of(leaves(paths, constants), runs(paths, constants)),
        lambda inner: st.one_of(
            st.tuples(st.just("and"), inner, inner),
            st.tuples(st.just("or"), inner, inner),
            st.tuples(st.just("not"), inner),
        ),
        max_leaves=4,
    )


def row_values():
    return st.lists(
        st.one_of(
            st.sampled_from(WORLD.members).map(lambda oid: ("object", oid)),
            st.sampled_from(WORLD.members).map(lambda oid: ("ref", oid)),
            st.sampled_from([5, "a", None, NOVALUE, 1, True, NAN, Symbol("a")]).map(
                lambda v: ("value", v)
            ),
        ),
        min_size=12, max_size=48,
    )


def moments(times):
    return st.sampled_from(
        [("now", None)] + [(how, t) for how in ("query", "dial") for t in times]
    )


@st.composite
def cases(draw):
    paths = draw(
        st.lists(st.sampled_from((*PATHS, SELF)), min_size=1, max_size=3, unique=True)
    )
    family = draw(st.sampled_from(sorted(WORLD.constants)))
    constants = WORLD.constants[family]
    shape = draw(st.one_of(
        runs(paths, constants), runs(paths, constants, mixed=True), trees(paths, constants)
    ))
    return shape, draw(row_values()), draw(moments(WORLD.times[:3]))


def build(shape, params):
    """The calculus tree of a drawn shape; lifted literals go to *params*."""
    kind = shape[0]
    if kind == "and":
        return And(build(shape[1], params), build(shape[2], params))
    if kind == "or":
        return Or(build(shape[1], params), build(shape[2], params))
    if kind == "not":
        return Not(build(shape[1], params))
    op, path, value, lifted, flipped = shape
    if lifted:
        params.append(value)
        side = Param(len(params) - 1)
    else:
        side = Const(value)
    column = Var("e") if path == SELF else PathApply(Var("e"), path)
    if flipped:
        return Compare(MIRRORED.get(op, op), side, column)
    return Compare(op, column, side)


def bases(rows):
    session = WORLD.session
    out = []
    for kind, item in rows:
        if kind == "object":
            out.append(session.object(item))
        elif kind == "ref":
            out.append(Ref(item))
        else:
            out.append(item)
    return out


# -- the naive per-row evaluator ----------------------------------------------


def naive_path(base, name, time):
    """``base!name``: the row's value read through ``session.value_at``."""
    session = WORLD.session
    if isinstance(base, Ref):
        base = session.deref(base)
    if not isinstance(base, GemObject):
        return NOVALUE  # an immediate, or no value, has no elements
    value = session.value_at(base, name, time)
    return NOVALUE if value is MISSING else session.deref(value)


def naive_compare(op, left, right):
    if op == "==":
        return value_equal(left, right)
    if left is NOVALUE or right is NOVALUE:
        return False  # no-value fails every ordering and every ~=
    if op == "!=":
        return not value_equal(left, right)
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def naive(shape, base, time):
    kind = shape[0]
    if kind == "and":
        return naive(shape[1], base, time) and naive(shape[2], base, time)
    if kind == "or":
        return naive(shape[1], base, time) or naive(shape[2], base, time)
    if kind == "not":
        return not naive(shape[1], base, time)
    op, path, value, _lifted, flipped = shape
    column = base if path == SELF else naive_path(base, path, time)
    if flipped:
        return naive_compare(MIRRORED.get(op, op), value, column)
    return naive_compare(op, column, value)


class Drawn:
    """Counts the members a naive walk draws (``ctx.examined``'s twin)."""

    examined = 0


def naive_members(collection, time, drawn):
    """The members of a set-like value, one at a time, each counted."""
    session = WORLD.session
    if isinstance(collection, Ref):
        collection = session.deref(collection)
    if isinstance(collection, GemObject):
        collection = session.members_of(collection, time)
    elif collection is NOVALUE or collection is None:
        collection = ()
    elif not isinstance(collection, list):
        raise CalculusError(f"{collection!r} is not a set-like value")
    for member in collection:
        drawn.examined += 1
        yield member


def naive_node(node, bindings, time, drawn):
    """A set tree's value under *bindings*, interpreted node by node."""
    def value(child, where=bindings):
        return naive_node(child, where, time, drawn)

    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return bindings[node.name]
    if isinstance(node, PathApply):
        current = value(node.base)
        for step in node.path_expr.steps:
            current = naive_path(current, step.name, time if step.at is None else step.at)
        return current
    if isinstance(node, Compare):
        return naive_compare(node.op, value(node.left), value(node.right))
    if isinstance(node, In):
        member = value(node.member)
        if member is NOVALUE:
            return False
        collection = value(node.collection)
        return collection is not NOVALUE and any(
            value_equal(member, m) for m in naive_members(collection, time, drawn)
        )
    if isinstance(node, Subset):
        left, right = value(node.left), value(node.right)
        if left is NOVALUE or right is NOVALUE:
            return False
        right_members = list(naive_members(right, time, drawn))
        return all(
            any(value_equal(m, r) for r in right_members)
            for m in naive_members(left, time, drawn)
        )
    universal = isinstance(node, ForAll)
    source = value(node.source)
    if source is NOVALUE:
        return universal
    for member in naive_members(source, time, drawn):
        if bool(value(node.condition, {**bindings, node.var: member})) != universal:
            return not universal
    return universal


# -- running a tree ------------------------------------------------------------


def session_at(when):
    """The session dialled for *when*; the query's time to pass."""
    how, time = when
    WORLD.session.time_dial.set(time if how == "dial" else None)
    WORLD.session.reads.clear()
    WORLD.session.enum_reads.clear()
    return time if how == "query" else None


def records(outcome, ctx):
    session = WORLD.session
    session.time_dial.set(None)
    return outcome, session.read_pairs(), set(session.enum_reads), ctx.examined


def run_batch(tree, values, when, params, errors=(TypeError,)):
    """(truths or the error type, read pairs, enum_reads, examined)."""
    ctx = QueryContext(WORLD.session, session_at(when), params=params)
    try:
        column = tree.evaluate_column(ctx, BindingBatch({"e": values}, len(values)))
        outcome = [bool(v) for v in column]
    except errors as error:  # an ordering of unlike values
        outcome = type(error)
    return records(outcome, ctx)


def run_rows(tree, values, when, params, errors):
    """The same, one row at a time: each row a batch of one."""
    ctx = QueryContext(WORLD.session, session_at(when), params=params)
    try:
        outcome = [bool(tree.evaluate(ctx, {"e": value})) for value in values]
    except errors as error:
        outcome = type(error)
    return records(outcome, ctx)


def run_naive(shape, values, when):
    """A drawn tree through :func:`naive`, row by row: its records (a
    comparison charges no fuel)."""
    time = session_at(when)
    try:
        outcome = [bool(naive(shape, value, time)) for value in values]
    except TypeError as error:
        outcome = type(error)
    return records(outcome, Drawn())


def run_naive_set(tree, values, when, errors):
    """A set tree through :func:`naive_node`, row by row: its records."""
    time, drawn = session_at(when), Drawn()
    try:
        outcome = [
            bool(naive_node(tree, {"e": value}, time, drawn)) for value in values
        ]
    except errors as error:
        outcome = type(error)
    return records(outcome, drawn)


def test_a_batch_answers_what_each_row_answers(monkeypatch):
    # the net is only as good as what it catches: each kernel must be
    # reached, plain and negated, over a path and over the bare variable,
    # by the cases generated below
    reached = set()
    fused_column = calculus._fused_column
    kernel = {"on": True}

    def switchable(node, ctx, batch):
        if not kernel["on"]:
            return None
        out = fused_column(node, ctx, batch)
        if out is not None:
            column, _sides, negated, guarded = node._kernel
            reached.add((type(column), negated, guarded))
        return out

    monkeypatch.setattr(calculus, "_fused_column", switchable)

    @settings(max_examples=400)
    @given(cases())
    def batch_equals_rows(case):
        shape, rows, when = case
        params: list = []
        tree = build(shape, params)
        values = bases(rows)
        expected = run_naive(shape, values, when)
        kernel["on"] = True
        fused = run_batch(tree, values, when, params)
        kernel["on"] = False
        node_by_node = run_batch(tree, values, when, params)
        assert fused[0] == node_by_node[0] == expected[0]
        if isinstance(expected[0], list):  # an error may stop either anywhere
            assert fused[1:] == node_by_node[1:] == expected[1:]

    batch_equals_rows()
    assert reached == {
        (kind, negated, guarded)
        for kind in (PathApply, Var)
        for negated in (False, True)
        for guarded in (False, True)
    }


# -- the fused ~= run, case by case ------------------------------------------


def none_of(column, constants, params=()):
    """``column ~= c1 and … and column ~= cn``, associated to the left as
    ``optimize`` joins a run of residual conjuncts."""
    tree = Compare("!=", column, constants[0])
    for constant in constants[1:]:
        tree = And(tree, Compare("!=", column, constant))
    return tree


#: members whose ``m`` is missing (no value), and immediates, which have
#: no elements: the rows the run's guard must fail
NO_VALUE_ROWS = [
    ("value", NOVALUE), ("value", 5), ("value", "a"),
    *(("object", oid) for oid in WORLD.members),
    *(("ref", oid) for oid in WORLD.members[:6]),
]


def kernel_against_definition(tree, params, rows, monkeypatch):
    """The run's truths with the kernel, without it, and by the naive
    evaluator — with reads and fuel — now and dialled back."""
    values = bases(rows)
    fused_column = calculus._fused_column
    for when in (("now", None), ("dial", WORLD.times[0])):
        monkeypatch.setattr(calculus, "_fused_column", fused_column)
        fused = run_batch(tree, values, when, params)
        monkeypatch.setattr(calculus, "_fused_column", lambda *_: None)
        node_by_node = run_batch(tree, values, when, params)
        assert fused == node_by_node
        monkeypatch.setattr(calculus, "_fused_column", fused_column)
        yield when, values, fused[0]


def test_a_run_of_ne_fails_the_rows_with_no_value(monkeypatch):
    column = PathApply(Var("e"), "m")
    # duplicates, ints and strings mixed, a Ref, nil, True against 1
    constants = [Const(1), Param(0), Const("a"), Const(1), Const(WORLD.refs[0]),
                 Const(None), Const(True)]
    tree = none_of(column, constants)
    assert tree._kernel[3], "an and of ~= over one column is the guarded kernel"
    params = ["b"]
    held = {1, "a", "b", None, True}
    for when, values, truths in kernel_against_definition(
        tree, params, NO_VALUE_ROWS, monkeypatch
    ):
        time = session_at(when)
        cells = [naive_path(value, "m", time) for value in values]
        session_at(("now", None))
        assert truths == [
            cell is not NOVALUE and not any(value_equal(cell, c) for c in
                                            [*held, WORLD.refs[0]])
            for cell in cells
        ]
        # the net reaches what it is about: rows without a value, which
        # fail, and rows that hold one of the constants, which fail too
        assert NOVALUE in cells and any(truths)
        assert any(cell in held for cell in cells if cell is not NOVALUE)


def test_a_run_over_the_bare_variable(monkeypatch):
    tree = none_of(Var("e"), [Const(5), Const(Ref(WORLD.members[0])), Const("a")])
    for _when, values, truths in kernel_against_definition(
        tree, [], NO_VALUE_ROWS, monkeypatch
    ):
        assert truths == [
            value is not NOVALUE and not any(
                value_equal(value, c) for c in (5, Ref(WORLD.members[0]), "a")
            )
            for value in values
        ]


def test_what_does_not_fuse_falls_through_to_the_definition(monkeypatch):
    e = Var("e")
    batch = BindingBatch({"e": bases(NO_VALUE_ROWS)}, len(NO_VALUE_ROWS))
    ctx = QueryContext(WORLD.session)
    # a no-value constant: ``x ~= <no value>`` fails every row
    no_value = none_of(PathApply(e, "m"), [Const(1), Const(NOVALUE)])
    assert no_value._kernel is not None
    assert calculus._fused_column(no_value, ctx, batch) is None
    assert not any(no_value.evaluate_column(ctx, batch))
    # a row-dependent side, two columns, or an = among the ~=
    for tree in (
        none_of(PathApply(e, "m"), [Const(1), PathApply(e, "n")]),
        none_of(PathApply(e, "m"), [Const(1)]) & Compare("!=", PathApply(e, "n"), Const(2)),
        none_of(PathApply(e, "m"), [Const(1)]) & Compare("==", PathApply(e, "m"), Const(2)),
    ):
        assert tree._kernel is None


# -- the set nodes --------------------------------------------------------------


def sources(time_pins):
    """Set-valued expressions over ``e``: its sets now or pinned ``@T``,
    a fixed set, a plain list, a number (not a set: an error) and a mix."""
    e = Var("e")
    pinned = [f"c@{t}" for t in time_pins] + [f"o@{t}" for t in time_pins]
    return st.one_of(
        st.sampled_from(["c", "o", "n", "m", *pinned]).map(lambda path: PathApply(e, path)),
        st.sampled_from(WORLD.collections).map(lambda s: Const(Ref(s.oid))),
        st.lists(st.sampled_from([1, "a", 2.5, NAN]), max_size=3).map(Const),
    )


def items():
    """Member-valued expressions: a literal or a path."""
    e = Var("e")
    return st.one_of(
        st.sampled_from([1, "a", 2, NAN, None, *WORLD.refs]).map(Const),
        st.sampled_from(["n", "s", "m"]).map(lambda path: PathApply(e, path)),
    )


def bodies():
    """An ∃ / ∀ body over ``x`` (and the outer ``e``)."""
    x, e = Var("x"), Var("e")
    compared = st.tuples(st.sampled_from(OPS), items()).map(
        lambda pair: Compare(pair[0], x, pair[1])
    )
    navigated = st.tuples(st.sampled_from(OPS), st.sampled_from(NUMBERS)).map(
        lambda pair: Compare(pair[0], PathApply(x, "n"), Const(pair[1]))
    )
    outer = st.just(In(x, PathApply(e, "c")))
    return st.one_of(compared, navigated, outer)


@st.composite
def set_trees(draw):
    pins = WORLD.set_times + WORLD.times[:1]
    kind = draw(st.sampled_from(["in", "subset", "exists", "forall"]))
    if kind == "in":
        return In(draw(items()), draw(sources(pins)))
    if kind == "subset":
        return Subset(draw(sources(pins)), draw(sources(pins)))
    quantifier = Exists if kind == "exists" else ForAll
    return quantifier("x", draw(sources(pins)), draw(bodies()))


def test_the_set_nodes_answer_as_each_row_alone():
    errors = (TypeError, CalculusError)
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(set_trees(), row_values(), moments(WORLD.set_times))
    def batch_equals_rows(tree, rows, when):
        values = bases(rows)
        expected = run_naive_set(tree, values, when, errors)
        by_row = run_rows(tree, values, when, [], errors)
        by_batch = run_batch(tree, values, when, [], errors)
        assert by_batch[0] == by_row[0] == expected[0]
        if isinstance(by_row[0], list):  # a row run stops at its first error
            assert by_batch[1:] == by_row[1:] == expected[1:]
            seen.update(
                {True: "held", False: "failed"}[truth] for truth in by_row[0]
            )
            if by_row[3]:
                seen.add("charged")
        else:
            seen.add(by_row[0])

    batch_equals_rows()
    # the cases reached both answers, member walks and both error kinds
    assert seen == {"held", "failed", "charged", TypeError, CalculusError}
