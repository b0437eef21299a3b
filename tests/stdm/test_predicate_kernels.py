"""The predicate kernel against the row evaluator, on generated trees.

An ``or`` whose comparisons are all ``=`` between one path column and
row-independent values, under any number of ``not``s, is evaluated as
membership in one key set over that column (``calculus._fused_column``);
every other tree by the connectives node by node.  Either way
``evaluate_column`` over a batch must say, row for row, what
``evaluate`` says of each row alone, and leave the same access records
(read pairs, ``enum_reads``) and the same fuel count
(``ctx.examined``).  Nothing here is an expected value written by hand:
the row evaluator is the oracle, and hypothesis generates

* trees of ``=``, ``~=``, ``<``, ``<=``, ``>``, ``>=`` under ``&``,
  ``|`` and ``not`` over one to three paths, each comparison either way
  round, each constant a literal or a lifted ``Param``;
* constants: ints, floats, bools, strings and symbols, NaN (the very
  NaN object a twin holds, and one decoded from the platter), nil, and
  Refs to objects the elements point at;
* batches of stored members, Refs to them, immediates (whose paths give
  NOVALUE) and NOVALUE itself, over elements that are missing on some
  members;
* a session that reads now, dialled back through its time dial or the
  query's time, and holds workspace twins it has not committed.

Three kernel bugs are known to fail it: NaN not screened out of the key
set, ``True`` / ``1`` keyed apart, and a negated run failing the rows
with no value (``not (x = c)`` taken for ``x ~= c``).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency import Authorizer, SessionObjectManager, TransactionManager
from repro.core import Ref
from repro.core.values import Symbol
from repro.stdm import calculus
from repro.stdm.calculus import (
    NOVALUE,
    And,
    BindingBatch,
    Compare,
    Const,
    Not,
    Or,
    Param,
    PathApply,
    QueryContext,
    Var,
)
from repro.storage import DiskGeometry, SimulatedDisk, StableStore

NAN = float("nan")
NUMBERS = [0, 1, -1, 2, 0.0, 1.0, 2.5, -0.5, True, False, NAN]
STRINGS = ["a", "b", "ab", "", Symbol("a")]
PATHS = ("n", "s", "m")  # numbers, strings, a mix of everything
OPS = ("==", "!=", "<", "<=", ">", ">=")
MEMBERS = 24


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
        self.members = members
        # each family's values, and the edges a kernel must get right
        # (drawn half the time): NaN, True / 1 / 1.0, NOVALUE's look-alike
        # nil, symbols against strings, Refs against the objects they name
        edges = [NAN, self.stored_nan, True, 1, 1.0, False, 0]
        self.constants = {
            "numbers": (NUMBERS, edges),
            "strings": (STRINGS, ["a", Symbol("a"), ""]),
            "all": (NUMBERS + STRINGS + [None, *self.refs], edges + [None, *self.refs]),
        }


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
def runs(draw, paths, constants):
    """An ``or`` of ``=`` over one path, perhaps negated: the shape the
    kernel takes."""
    path = draw(st.sampled_from(paths))
    items = draw(st.lists(leaves([path], constants, ("==",)), min_size=2, max_size=4))
    while len(items) > 1:  # associate at a drawn place each time
        at = draw(st.integers(0, len(items) - 2))
        items[at:at + 2] = [("or", items[at], items[at + 1])]
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


@st.composite
def cases(draw):
    paths = draw(st.lists(st.sampled_from(PATHS), min_size=1, max_size=3, unique=True))
    family = draw(st.sampled_from(sorted(WORLD.constants)))
    constants = WORLD.constants[family]
    shape = draw(st.one_of(runs(paths, constants), trees(paths, constants)))
    rows = draw(st.lists(
        st.one_of(
            st.sampled_from(WORLD.members).map(lambda oid: ("object", oid)),
            st.sampled_from(WORLD.members).map(lambda oid: ("ref", oid)),
            st.sampled_from([5, "a", None, NOVALUE]).map(lambda v: ("value", v)),
        ),
        min_size=12, max_size=48,
    ))
    when = draw(st.sampled_from(
        [("now", None)] + [(how, t) for how in ("query", "dial") for t in WORLD.times[:3]]
    ))
    return shape, rows, when


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
    column = PathApply(Var("e"), path)
    if flipped:
        mirrored = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        return Compare(mirrored, side, column)
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


def run(tree, values, when, params, batched):
    """(truths or the error type, read pairs, enum_reads, examined)."""
    session = WORLD.session
    how, time = when
    session.time_dial.set(time if how == "dial" else None)
    session.reads.clear()
    session.enum_reads.clear()
    ctx = QueryContext(session, time if how == "query" else None, params=params)
    try:
        if batched:
            column = tree.evaluate_column(ctx, BindingBatch({"e": values}, len(values)))
            outcome = [bool(v) for v in column]
        else:
            outcome = [bool(tree.evaluate(ctx, {"e": value})) for value in values]
    except TypeError as error:  # an ordering of unlike values
        outcome = type(error)
    finally:
        session.time_dial.set(None)
    return outcome, session.read_pairs(), set(session.enum_reads), ctx.examined


def test_a_batch_answers_what_each_row_answers(monkeypatch):
    # the net is only as good as what it catches: the kernel must be
    # reached, plain and negated, by the cases generated below
    reached = set()
    fused_column = calculus._fused_column

    def spy(node, ctx, batch):
        out = fused_column(node, ctx, batch)
        if out is not None:
            reached.add(node._kernel[2])
        return out

    monkeypatch.setattr(calculus, "_fused_column", spy)

    @settings(max_examples=400)
    @given(cases())
    def batch_equals_rows(case):
        shape, rows, when = case
        params: list = []
        tree = build(shape, params)
        values = bases(rows)
        by_row = run(tree, values, when, params, batched=False)
        by_batch = run(tree, values, when, params, batched=True)
        assert by_batch[0] == by_row[0]
        if isinstance(by_row[0], list):  # a row run stops at its first error
            assert by_batch[1:] == by_row[1:]

    batch_equals_rows()
    assert reached == {False, True}  # negated
