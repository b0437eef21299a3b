"""The STDM set calculus (section 5.1).

The paper's example query —

    {{Emp: e, Mgr: m} where
      (e ∈ X!Employees) and (d ∈ X!Departments)
      [(m ∈ d!Managers) and (d!Name ∈ e!Depts) and
       (e!Salary > 0.10 * d!Budget)]}

— is a :class:`SetQuery`: a result constructor, a list of *binders*
(each binding a variable to the members of a set-valued expression,
which may be a function of earlier variables — "a distinguishing feature
of our calculus"), and a condition.

Expressions build with Python operators: ``e.path("Salary") >
d.path("Budget") * 0.10``, ``d.path("Name").in_(e.path("Depts"))``,
``&``/``|``/``~`` for the connectives, and :class:`Apply` wraps an
arbitrary Python function for the "general computations in the
conditions" the paper wants (section 5.4).

Every node has one evaluation, :meth:`Expr.evaluate_column`: the node's
value for each row of a :class:`BindingBatch`.  :meth:`Expr.evaluate`
of one binding is the same code over a batch of one.

:meth:`SetQuery.evaluate` is the *reference* nested-loop interpreter:
the algebra (:mod:`repro.stdm.algebra`) and the translator are tested
for equivalence against it.
"""

from __future__ import annotations

import operator
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Any, Callable, Iterator, Optional, Sequence

from ..core.history import MISSING
from ..core.objects import ColumnObject, GemObject
from ..core.paths import Path, parse_path
from ..core.values import IMMEDIATE_TYPES, Ref, Symbol
from ..errors import CalculusError
from .sets import LabeledSet

#: exact types the batched path navigator treats as already-resolved
#: objects; a class object takes the generic gather path
_NAVIGABLE_TYPES = frozenset((GemObject, ColumnObject))
_MISSING_TYPE = type(MISSING)


class _NoValue:
    """Result of a path that does not resolve; fails every condition."""

    _instance: "_NoValue | None" = None

    def __new__(cls) -> "_NoValue":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<no-value>"


NOVALUE = _NoValue()

#: value types with non-``==`` comparison semantics (oid identity for
#: entities, universal failure for NOVALUE); a column free of these can
#: be compared with plain operators instead of per-row ``value_equal``
_IDENTITY_TYPES = frozenset((GemObject, ColumnObject, Ref, _NoValue))


class QueryContext:
    """Everything evaluation needs: the store, a time, and directories.

    When a *budget* is attached, evaluation meters its own fuel: one
    unit per member drawn from any set (scans, membership tests and
    index probes alike), so declarative work is charged by what it
    actually examines rather than pre-charged by collection size.

    ``examined`` counts every charged unit whether or not a budget is
    attached — it is the candidate count the slow-query log reports,
    the number that separates an index probe from a full scan.

    ``params`` is the literal vector of the text being run: a plan is
    shared by every text of its shape, and reads the literals of *this*
    execution through its :class:`Param` nodes.

    *dialed* says *time* is the store's own time dial: directories are
    probed at it, but store reads pass no time (``read_time``) and the
    store applies its dial per object, as to any unpinned read — so an
    object with no past (a session's workspace-only result) reads as it
    is now.
    """

    def __init__(
        self,
        store,
        time: Optional[int] = None,
        directory_manager=None,
        budget=None,
        params: Sequence[Any] = (),
        dialed: bool = False,
    ):
        self.store = store
        self.time = time
        self.read_time = None if dialed else time
        self.directory_manager = directory_manager
        self.budget = budget
        self.params = params
        self.examined = 0

    def charge(self, units: int = 1) -> None:
        """Count examined candidates; spend fuel when a budget is attached."""
        self.examined += units
        if self.budget is not None:
            self.budget.charge_steps(units)

    def members(self, collection: Any) -> Iterator[Any]:
        """Iterate the members of any set-like value (see
        :meth:`raw_member_list`); each member drawn costs one unit of
        query fuel, charged as it is drawn."""
        budget = self.budget
        for member in self.raw_member_list(collection):
            self.examined += 1
            if budget is not None:
                budget.charge_steps()
            yield member

    def raw_member_list(self, collection: Any) -> list[Any]:
        """The members of any set-like value, without charging — bulk
        callers charge once.

        GSDM set objects give their live element values (dereferenced);
        labeled sets give their values; plain Python collections pass
        through; no-value and nil have no members.
        """
        if isinstance(collection, Ref):
            collection = self.store.deref(collection)
        if isinstance(collection, GemObject):
            return self.store.members_of(collection, self.read_time)
        if isinstance(collection, LabeledSet):
            return collection.values()
        if isinstance(collection, (list, tuple, set, frozenset)):
            return list(collection)
        if collection is NOVALUE or collection is None:
            return []
        raise CalculusError(f"{collection!r} is not a set-like value")


class BindingBatch:
    """A column-oriented block of variable bindings.

    The executor streams these instead of one dict per row: ``columns``
    maps each variable name to a parallel list of values and ``size`` is
    the row count.  A single binding is a batch of one.
    """

    __slots__ = ("columns", "size", "_expr_cache")

    def __init__(self, columns: dict[str, list], size: int) -> None:
        self.columns = columns
        self.size = size
        # computed columns for repeated sub-expressions (e.g. ``e!Salary``
        # appearing in several conjuncts), keyed structurally; valid for
        # this batch's lifetime because queries never write the store
        self._expr_cache: dict[tuple, list] = {}

    def rows(self) -> list[dict[str, Any]]:
        """All bindings as row dicts."""
        columns = self.columns.items()
        return [
            {name: column[i] for name, column in columns}
            for i in range(self.size)
        ]

    def select_mask(self, mask: Sequence[bool], count: int) -> "BindingBatch":
        """A new batch keeping the rows where *mask* is set (in order).

        ``itertools.compress`` gathers each column at C speed.  *count*
        is ``sum(mask)``.
        """
        columns = {
            name: list(compress(column, mask))
            for name, column in self.columns.items()
        }
        selected = BindingBatch(columns, count)
        # carry computed columns along: a gather is far cheaper than
        # re-reading the store for the surviving rows
        selected._expr_cache = {
            key: list(compress(column, mask))
            for key, column in self._expr_cache.items()
        }
        return selected


def value_equal(a: Any, b: Any) -> bool:
    """Equality with entity identity: objects compare by oid."""
    a_oid = a.oid if isinstance(a, (GemObject, Ref)) else None
    b_oid = b.oid if isinstance(b, (GemObject, Ref)) else None
    if a_oid is not None or b_oid is not None:
        return a_oid == b_oid
    if a is NOVALUE or b is NOVALUE:
        return False
    return a == b


# --------------------------------------------------------------------------
# hash keys with value_equal semantics
# --------------------------------------------------------------------------

_UNHASHABLE = object()
_OID_KEY = object()  # tag for oid-keyed entries; never equals a user value


def _unmatchable(value: Any) -> bool:
    """True for values that fail *every* ``value_equal`` comparison."""
    return value is NOVALUE or (isinstance(value, float) and value != value)


def _hash_key(value: Any) -> Any:
    """A dict/set key consistent with :func:`value_equal`, or _UNHASHABLE.

    Objects and Refs key by oid (entity identity); everything else keys
    by the value itself (Python guarantees ``hash`` consistency with
    ``==`` across int/bool/float).  Callers must screen NOVALUE and NaN
    first via :func:`_unmatchable`.
    """
    if isinstance(value, (GemObject, Ref)):
        return (_OID_KEY, value.oid)
    try:
        hash(value)
    except TypeError:
        return _UNHASHABLE
    return value


def _contains(members: list, value: Any) -> bool:
    return any(value_equal(value, m) for m in members)


class _MemberIndex:
    """Hash-accelerated ``value_equal`` membership over a member list.

    Keys members by oid/value hash; unhashable members land in a
    fallback list scanned with :func:`value_equal`.  NOVALUE and NaN are
    never members of anything (they fail every comparison), so they are
    neither indexed nor matched.
    """

    __slots__ = ("keyed", "unkeyed")

    def __init__(self, members=()) -> None:
        self.keyed: set = set()
        self.unkeyed: list = []
        for member in members:
            self.add(member)

    def add(self, member: Any) -> None:
        if _unmatchable(member):
            return
        hkey = _hash_key(member)
        if hkey is _UNHASHABLE:
            self.unkeyed.append(member)
        else:
            self.keyed.add(hkey)

    def __contains__(self, value: Any) -> bool:
        if _unmatchable(value):
            return False
        hkey = _hash_key(value)
        if hkey is _UNHASHABLE:
            return _contains(self.unkeyed, value)
        if hkey in self.keyed:
            return True
        # an unhashable member may still value_equal a hashable probe
        return bool(self.unkeyed) and _contains(self.unkeyed, value)


# --------------------------------------------------------------------------
# expressions
# --------------------------------------------------------------------------

class Expr:
    """Base class for calculus expressions; combinators build the AST.

    Every node defines one evaluation, :meth:`evaluate_column`, over a
    batch of bindings; :meth:`evaluate` is that evaluation over a batch
    of one.
    """

    def evaluate(self, ctx: QueryContext, bindings: dict[str, Any]) -> Any:
        """The expression's value under *bindings*."""
        batch = BindingBatch({name: [v] for name, v in bindings.items()}, 1)
        return self.evaluate_column(ctx, batch)[0]

    def evaluate_column(self, ctx: QueryContext,
                        batch: "BindingBatch") -> list[Any]:
        """The expression's value for every row of *batch*, as one list."""
        raise NotImplementedError

    def const_value(self, ctx: QueryContext) -> tuple[bool, Any]:
        """``(True, value)`` when this expression is row-independent.

        The batched executor hoists such sub-expressions out of the inner
        loop: ``0.10 * d!Budget`` keeps a per-row path, but ``10 * 3000``
        collapses to one scalar broadcast per batch.  A :class:`Param`
        is as row-independent as a :class:`Const`; its value is in *ctx*.
        """
        return (False, None)

    def free_vars(self) -> frozenset[str]:
        """Variables this expression refers to."""
        raise NotImplementedError

    # -- combinators ----------------------------------------------------------

    def path(self, path_text: "str | Path") -> "PathApply":
        """Apply a path: ``e.path("Salary")`` is the paper's ``e!Salary``."""
        return PathApply(self, path_text)

    def in_(self, collection: "Expr | Any") -> "In":
        """Membership: ``x.in_(s)`` is ``x ∈ s``."""
        return In(self, as_expr(collection))

    def subset_of(self, other: "Expr | Any") -> "Subset":
        """``x.subset_of(s)`` is ``x ⊆ s`` (one quantifier, not two)."""
        return Subset(self, as_expr(other))

    def eq(self, other: Any) -> "Compare":
        """Equality comparison (named to keep ``==`` for AST identity)."""
        return Compare("==", self, as_expr(other))

    def ne(self, other: Any) -> "Compare":
        """Inequality comparison."""
        return Compare("!=", self, as_expr(other))

    def __lt__(self, other: Any) -> "Compare":
        return Compare("<", self, as_expr(other))

    def __le__(self, other: Any) -> "Compare":
        return Compare("<=", self, as_expr(other))

    def __gt__(self, other: Any) -> "Compare":
        return Compare(">", self, as_expr(other))

    def __ge__(self, other: Any) -> "Compare":
        return Compare(">=", self, as_expr(other))

    def __add__(self, other: Any) -> "BinOp":
        return BinOp("+", self, as_expr(other))

    def __sub__(self, other: Any) -> "BinOp":
        return BinOp("-", self, as_expr(other))

    def __mul__(self, other: Any) -> "BinOp":
        return BinOp("*", self, as_expr(other))

    def __truediv__(self, other: Any) -> "BinOp":
        return BinOp("/", self, as_expr(other))

    def __rmul__(self, other: Any) -> "BinOp":
        return BinOp("*", as_expr(other), self)

    def __and__(self, other: "Expr") -> "And":
        return And(self, other)

    def __or__(self, other: "Expr") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


def as_expr(value: Any) -> Expr:
    """Lift a plain value to a :class:`Const` unless already an Expr."""
    return value if isinstance(value, Expr) else Const(value)


@dataclass(frozen=True)
class Const(Expr):
    """A literal value (or a direct reference to a set object)."""

    value: Any

    def evaluate_column(self, ctx, batch):
        return [self.value] * batch.size

    def const_value(self, ctx):
        return (True, self.value)

    def free_vars(self):
        return frozenset()

    def __repr__(self) -> str:
        return repr(self.value)


#: the literal vector plans are being printed for (see :func:`showing`)
_SHOWN: ContextVar[Sequence[Any]] = ContextVar("shown_params", default=())


@contextmanager
def showing(params: Sequence[Any]) -> Iterator[None]:
    """While open, each :class:`Param` prints as its value in *params*.

    ``describe`` / ``explain`` / ``repr`` take no context, and a plan is
    shared by every literal vector of its shape: whoever prints one says
    here whose literals to print.
    """
    token = _SHOWN.set(params)
    try:
        yield
    finally:
        _SHOWN.reset(token)


@dataclass(frozen=True)
class Param(Expr):
    """A literal lifted out of the query's text: ``ctx.params[slot]``.

    Row-independent like a :class:`Const`, but the value belongs to the
    execution, not the plan — so one translation and one plan serve
    every text that differs only in its literals.
    """

    slot: int

    def evaluate_column(self, ctx, batch):
        return [ctx.params[self.slot]] * batch.size

    def const_value(self, ctx):
        return (True, ctx.params[self.slot])

    def free_vars(self):
        return frozenset()

    def __repr__(self) -> str:
        shown = _SHOWN.get()
        if self.slot < len(shown):
            return repr(shown[self.slot])
        return f"?{self.slot}"


@dataclass(frozen=True)
class Var(Expr):
    """A calculus variable, bound by a binder."""

    name: str

    def evaluate_column(self, ctx, batch):
        column = batch.columns.get(self.name)
        if column is None:
            raise CalculusError(f"unbound variable {self.name!r}")
        return column

    def free_vars(self):
        return frozenset({self.name})

    def __repr__(self) -> str:
        return self.name


class PathApply(Expr):
    """``base!component!component`` — navigation from an expression."""

    def __init__(self, base: Expr, path: "str | Path") -> None:
        self.base = base
        self.path_expr: Path = parse_path(path) if isinstance(path, str) else path
        # structural identity for batch-level CSE: two PathApply nodes
        # over the same variable and path yield the same column.  Chained
        # navigations (``e!Name!Last`` built as nested PathApply) compose
        # their keys so every prefix shares one cached column.
        if isinstance(base, Var):
            self._column_key = ("path", base.name, str(self.path_expr))
        elif isinstance(base, PathApply) and base._column_key is not None:
            self._column_key = base._column_key + (str(self.path_expr),)
        else:
            self._column_key = None

    def evaluate_column(self, ctx, batch):
        key = self._column_key
        if key is not None:
            cached = batch._expr_cache.get(key)
            if cached is not None:
                return cached
        current = self.base.evaluate_column(ctx, batch)
        store = ctx.store
        if not self.path_expr.steps:
            return store.deref_column(current)
        for step in self.path_expr.steps:
            time = step.at if step.at is not None else ctx.read_time
            # ``set(map(type, ...))`` runs at C speed, unlike an
            # ``all(isinstance(...))`` pass over the column: when every
            # row is already a navigable object (the common case right
            # after a scan) the whole column is read as it stands
            positions = None
            targets = current
            if not set(map(type, current)) <= _NAVIGABLE_TYPES:
                # gather the rows that are still objects or Refs; every
                # other row becomes NOVALUE (a path that fails to resolve
                # fails every condition, §5.2)
                positions = [
                    i for i, value in enumerate(current)
                    if isinstance(value, (GemObject, Ref))
                ]
                targets = store.deref_column([current[i] for i in positions])
            values = store.values_at_column(targets, step.name, time)
            value_types = set(map(type, values))
            if _MISSING_TYPE in value_types:
                values = [NOVALUE if value is MISSING else value for value in values]
            if Ref in value_types:
                values = store.deref_column(values)
            if positions is not None:
                current = [NOVALUE] * len(current)
                for pos, value in zip(positions, values):
                    current[pos] = value
            else:
                current = values
        if key is not None:
            batch._expr_cache[key] = current
        return current

    def free_vars(self):
        return self.base.free_vars()

    def __repr__(self) -> str:
        return f"{self.base!r}!{self.path_expr}"


@dataclass(frozen=True)
class BinOp(Expr):
    """Arithmetic on numbers; NOVALUE propagates."""

    op: str
    left: Expr
    right: Expr

    _FUNCTIONS = {
        "+": operator.add,
        "-": operator.sub,
        "*": operator.mul,
        "/": operator.truediv,
    }

    def evaluate_column(self, ctx, batch):
        constant, value = self.const_value(ctx)
        if constant:
            return [value] * batch.size
        fn = self._FUNCTIONS[self.op]
        left = self.left.evaluate_column(ctx, batch)
        right = self.right.evaluate_column(ctx, batch)
        return [
            NOVALUE if (a is NOVALUE or b is NOVALUE) else fn(a, b)
            for a, b in zip(left, right)
        ]

    def const_value(self, ctx):
        l_const, l_value = self.left.const_value(ctx)
        if not l_const:
            return (False, None)
        r_const, r_value = self.right.const_value(ctx)
        if not r_const:
            return (False, None)
        if l_value is NOVALUE or r_value is NOVALUE:
            return (True, NOVALUE)
        try:
            return (True, self._FUNCTIONS[self.op](l_value, r_value))
        except Exception:
            # the row loop raises it, on the first row it reaches
            return (False, None)

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class Compare(Expr):
    """Ordering / equality comparison; NOVALUE fails every comparison."""

    op: str
    left: Expr
    right: Expr

    #: each comparison's test on two values that both have one
    _TESTS = {
        "==": value_equal,
        "!=": lambda a, b: not value_equal(a, b),
        "<": operator.lt,
        "<=": operator.le,
        ">": operator.gt,
        ">=": operator.ge,
    }

    def evaluate_column(self, ctx, batch):
        op = self.op
        test = self._TESTS.get(op)
        if test is None:
            raise CalculusError(f"unknown comparison {op!r}")
        left = self.left.evaluate_column(ctx, batch)
        constant, r = self.right.const_value(ctx)
        if (
            constant and op in ("==", "!=")
            and not (isinstance(r, (GemObject, Ref)) or r is NOVALUE)
            and not set(map(type, left)) & _IDENTITY_TYPES
        ):
            # one C-speed type pass says no row needs identity or
            # no-value semantics: a bare operator instead of per-row
            # ``value_equal``
            if op == "==":
                return [a == r for a in left]
            return [not (a == r) for a in left]
        right = self.right.evaluate_column(ctx, batch)
        return [
            False if (a is NOVALUE or b is NOVALUE) else test(a, b)
            for a, b in zip(left, right)
        ]

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class In(Expr):
    """Membership: ``m ∈ d!Managers`` (section 5.2's distinguishing case)."""

    member: Expr
    collection: Expr

    def evaluate_column(self, ctx, batch):
        # the collection is read only where the member has a value; each
        # row's walk stops at its first match, charging what it drew
        members = self.member.evaluate_column(ctx, batch)
        live = [member is not NOVALUE for member in members]
        collections = _column_on(self.collection, ctx, batch, live)
        return [
            open_ and collection is not NOVALUE
            and any(value_equal(member, m) for m in ctx.members(collection))
            for open_, member, collection in zip(live, members, collections)
        ]

    def free_vars(self):
        return self.member.free_vars() | self.collection.free_vars()

    def __repr__(self) -> str:
        return f"({self.member!r} ∈ {self.collection!r})"


@dataclass(frozen=True)
class Subset(Expr):
    """``a ⊆ b`` — one construct, where relational calculus needs two
    quantifiers (section 5.2)."""

    left: Expr
    right: Expr

    def evaluate_column(self, ctx, batch):
        # per row, the right side is drawn whole, the left one until a
        # member is missing from it
        out = []
        for left, right in zip(self.left.evaluate_column(ctx, batch),
                               self.right.evaluate_column(ctx, batch)):
            if left is NOVALUE or right is NOVALUE:
                out.append(False)
                continue
            right_members = list(ctx.members(right))
            out.append(all(
                any(value_equal(m, r) for r in right_members)
                for m in ctx.members(left)
            ))
        return out

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()

    def __repr__(self) -> str:
        return f"({self.left!r} ⊆ {self.right!r})"


def _column_on(expr: Expr, ctx, batch, mask: list) -> list:
    """*expr*'s column over the rows where *mask* is set, None elsewhere:
    the other rows are never evaluated, so they read and charge nothing."""
    count = sum(mask)
    if count == batch.size:
        return expr.evaluate_column(ctx, batch)
    column = [None] * batch.size
    if count:
        values = expr.evaluate_column(ctx, batch.select_mask(mask, count))
        deque(
            map(column.__setitem__, compress(range(batch.size), mask), values),
            maxlen=0,
        )
    return column


def _short_circuit(ctx, batch, left: list, right: Expr, conjunction: bool):
    """``left and right`` / ``left or right`` over a batch.

    The right operand is evaluated (and charges fuel) only on the rows
    whose left value leaves the answer open — truthy under ``and``,
    falsy under ``or`` — gathered into one sub-batch; its truth values
    are scattered back without a Python loop.
    """
    truth = list(map(bool, left))
    pending = truth if conjunction else list(map(operator.not_, truth))
    count = sum(pending)
    if not count:
        return truth
    if count == batch.size:
        return list(map(bool, right.evaluate_column(ctx, batch)))
    values = right.evaluate_column(ctx, batch.select_mask(pending, count))
    deque(
        map(truth.__setitem__, compress(range(batch.size), pending),
            map(bool, values)),
        maxlen=0,
    )
    return truth


@dataclass(frozen=True)
class And(Expr):
    """Conjunction."""

    left: Expr
    right: Expr

    #: what the tree fuses to, decided once per node (plans are cached)
    _kernel = cached_property(lambda self: _kernel_shape(self))

    def evaluate_column(self, ctx, batch):
        fused = _fused_column(self, ctx, batch)
        if fused is not None:
            return fused
        left = self.left.evaluate_column(ctx, batch)
        return _short_circuit(ctx, batch, left, self.right, True)

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()

    def __repr__(self) -> str:
        return f"({self.left!r} and {self.right!r})"


@dataclass(frozen=True)
class Or(Expr):
    """Disjunction."""

    left: Expr
    right: Expr

    #: what the tree fuses to, decided once per node (plans are cached)
    _kernel = cached_property(lambda self: _kernel_shape(self))

    def evaluate_column(self, ctx, batch):
        fused = _fused_column(self, ctx, batch)
        if fused is not None:
            return fused
        left = self.left.evaluate_column(ctx, batch)
        return _short_circuit(ctx, batch, left, self.right, False)

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()

    def __repr__(self) -> str:
        return f"({self.left!r} or {self.right!r})"


@dataclass(frozen=True)
class Not(Expr):
    """Negation."""

    operand: Expr

    #: what the tree fuses to, decided once per node (plans are cached)
    _kernel = cached_property(lambda self: _kernel_shape(self))

    def evaluate_column(self, ctx, batch):
        fused = _fused_column(self, ctx, batch)
        if fused is not None:
            return fused
        return list(map(operator.not_, self.operand.evaluate_column(ctx, batch)))

    def free_vars(self):
        return self.operand.free_vars()

    def __repr__(self) -> str:
        return f"(not {self.operand!r})"


# --------------------------------------------------------------------------
# predicate kernel: a run of one comparison over one column in one pass
# --------------------------------------------------------------------------
#
# ``(e!name = 'a') | (e!name = 'b') | (e!name = 'c')`` interpreted node by
# node scans the same column once per comparison and gathers a sub-batch
# per connective.  An ``or`` whose leaves all compare one path column —
# or one bare variable, ``[:x | (x = 1) | (x = 2)]`` — for ``=`` with
# row-independent values, under any number of ``not``s, is instead
# membership in one key set over that column; an ``and`` of such ``~=``
# is "none of" it, and fails the rows with no value, as ``~=`` does (§5.2).
#
# The column is the one the tree's leftmost comparison reads for the
# whole batch in the node-by-node evaluation, and every other comparison
# would read it from the batch's column cache (a variable's column reads
# nothing at all), so reads, read sets and fuel are the same by
# construction (comparisons charge nothing).  Any other tree, column or
# constant falls through to the node-by-node evaluation above, which
# stays the definition.

#: column value types whose ``=`` is hash equality: a column of only
#: these answers membership with ``x in keys`` at C speed (NOVALUE hashes
#: by identity and is never a key, so it misses, as it must)
_HASHED_TYPES = frozenset((*IMMEDIATE_TYPES, Symbol, _NoValue))

def _member_of(column: list, values: list, no_value: bool = False) -> list:
    """``column[i] = v1 or … or column[i] = vn`` for every row, or, with
    *no_value*, the row has no value."""
    # objects and Refs key by oid; NaN and NOVALUE are never keys ...
    index = _MemberIndex(values)
    keyed = index.keyed
    if no_value:
        keyed.add(NOVALUE)  # ... unless asked (it hashes by identity)
    if index.unkeyed:
        return [x in index or (no_value and x is NOVALUE) for x in column]
    if set(map(type, column)) <= _HASHED_TYPES:
        return [x in keyed for x in column]
    return [x in keyed if type(x) in _HASHED_TYPES else x in index for x in column]


def _column_key(node: Expr):
    """What names the batch column *node* is: a bare variable's, or a
    path's over one; None for anything else."""
    if type(node) is Var:
        return ("var", node.name)
    return node._column_key if isinstance(node, PathApply) else None


def _column_term(node: Expr, op: str):
    """``(column, side)`` when *node* is *op* between a variable or path
    column and a row-independent *side*, either way round; else None."""
    if type(node) is not Compare or node.op != op:
        return None
    # the column is the variable or path side: the other one, when the
    # kernel takes it, is a constant and reads nothing
    for column, side in ((node.left, node.right), (node.right, node.left)):
        if _column_key(column) is not None and not side.free_vars():
            return column, side
    return None


def _operands(node: Expr, connective: type) -> list:
    """The operands of a run of *connective*, left to right."""
    if type(node) is connective:
        return _operands(node.left, connective) + _operands(node.right, connective)
    return [node]


def _kernel_shape(node: Expr):
    """``(column, sides, negated, guarded)`` for a tree that fuses, else
    None; *guarded* is an ``and`` of ``~=``, which no-value rows fail.

    The *sides* are evaluated per execution, so one cached plan serves
    every literal vector.
    """
    negated = False
    while type(node) is Not:
        node, negated = node.operand, not negated
    op = {Or: "==", And: "!="}.get(type(node))  # its leaves' comparison
    if op is None:
        return None  # a lone comparison is already one pass
    terms = [_column_term(leaf, op) for leaf in _operands(node, type(node))]
    if any(term is None for term in terms):
        return None
    key = _column_key(terms[0][0])
    if any(_column_key(column) != key for column, _side in terms):
        return None
    return terms[0][0], [side for _column, side in terms], negated, op == "!="


def _fused_column(node: Expr, ctx, batch) -> Optional[list]:
    """*node*'s truth column from the kernel, or None if it does not fuse."""
    shape = node._kernel
    if shape is None:
        return None
    column, sides, negated, guarded = shape
    values = []
    for side in sides:
        constant, value = side.const_value(ctx)
        # ``x ~= <no value>`` fails every row: left to the definition
        if not constant or (guarded and value is NOVALUE):
            return None
        values.append(value)
    # "none of" is the rows that have no value or are a key, negated
    truth = None if guarded else _posted_truth(column, ctx, batch, values)
    if truth is None:
        truth = _member_of(column.evaluate_column(ctx, batch), values, guarded)
    return list(map(operator.not_, truth)) if negated != guarded else truth


def _posted_truth(column: Expr, ctx, batch, values: list) -> Optional[list]:
    """The store's answer for a one-step "now" path over a variable, from
    postings beside the value column it reads (recording the same
    reads); None for the column's own path."""
    steps = column.path_expr.steps if type(column) is PathApply else ()
    if len(steps) != 1 or type(column.base) is not Var or steps[0].at is not None:
        return None
    # NOVALUE and NaN match nothing; objects and Refs key by oid
    keys = [value for value in values if not _unmatchable(value)]
    targets = batch.columns.get(column.base.name)
    if ctx.time is not None or targets is None or not set(map(type, keys)) <= _HASHED_TYPES:
        return None
    return ctx.store.posted_truth(targets, steps[0].name, keys)


class _Quantifier(Expr):
    """``var ∈ source: condition`` under ∃ or ∀.

    The source is read as a column; each row then walks its members one
    at a time, evaluating the condition on a batch of one (that row's
    bindings plus *var*), and stops at the first member that decides
    the row — so a row charges, and reads, only the members it reached.
    """

    #: ∀: the answer on a no-value or exhausted source, and the truth
    #: each member must keep for the walk to go on
    universal: bool
    symbol: str

    def __init__(self, var: "str | Var", source: "Expr | Any",
                 condition: Expr) -> None:
        self.var = var.name if isinstance(var, Var) else var
        self.source = as_expr(source)
        self.condition = condition

    def evaluate_column(self, ctx, batch):
        universal = self.universal
        condition = self.condition
        columns = batch.columns
        out = []
        for i, collection in enumerate(self.source.evaluate_column(ctx, batch)):
            answer = universal
            if collection is not NOVALUE:
                row = {name: [column[i]] for name, column in columns.items()}
                for member in ctx.members(collection):
                    row[self.var] = [member]
                    inner = BindingBatch(row, 1)
                    if bool(condition.evaluate_column(ctx, inner)[0]) != universal:
                        answer = not universal
                        break
            out.append(answer)
        return out

    def free_vars(self):
        return self.source.free_vars() | (
            self.condition.free_vars() - {self.var}
        )

    def __repr__(self) -> str:
        return (
            f"({self.symbol}{self.var} ∈ {self.source!r} [{self.condition!r}])"
        )


class Exists(_Quantifier):
    """∃ var ∈ source: condition — an expression-level subquery.

    The paper's calculus brackets (``(d ∈ X!Departments)[…]``) quantify
    variables inside conditions; :class:`Exists` and :class:`ForAll`
    provide that form when a binder at query level would change the
    result multiplicity.
    """

    universal = False
    symbol = "∃"


class ForAll(_Quantifier):
    """∀ var ∈ source: condition (vacuously true on an empty source)."""

    universal = True
    symbol = "∀"


class Apply(Expr):
    """General computation: a Python function over expression values.

    Realizes "we also wanted to include general computations in the
    conditions of calculus expressions" (section 5.4).
    """

    def __init__(self, function: Callable[..., Any], *args: "Expr | Any",
                 label: str = "") -> None:
        self.function = function
        self.args = tuple(as_expr(a) for a in args)
        self.label = label or getattr(function, "__name__", "fn")

    def evaluate_column(self, ctx, batch):
        function = self.function
        if not self.args:
            return [function() for _ in range(batch.size)]
        columns = [a.evaluate_column(ctx, batch) for a in self.args]
        return [
            NOVALUE if any(v is NOVALUE for v in values) else function(*values)
            for values in zip(*columns)
        ]

    def free_vars(self):
        result: frozenset[str] = frozenset()
        for a in self.args:
            result |= a.free_vars()
        return result

    def __repr__(self) -> str:
        return f"{self.label}({', '.join(map(repr, self.args))})"


# --------------------------------------------------------------------------
# queries
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Binder:
    """``var ∈ source`` — *source* may use earlier binders' variables."""

    var: str
    source: Expr

    def __repr__(self) -> str:
        return f"({self.var} ∈ {self.source!r})"


class SetQuery:
    """A set-calculus comprehension: result template, binders, condition."""

    def __init__(
        self,
        result: "dict[str, Expr] | Expr",
        binders: Sequence["Binder | tuple"],
        condition: Optional[Expr] = None,
    ) -> None:
        self.result = (
            {label: as_expr(e) for label, e in result.items()}
            if isinstance(result, dict)
            else as_expr(result)
        )
        self.binders = [
            b if isinstance(b, Binder) else Binder(_binder_var(b[0]), as_expr(b[1]))
            for b in binders
        ]
        self.condition = condition
        self._check_scoping()

    def _check_scoping(self) -> None:
        bound: set[str] = set()
        for binder in self.binders:
            unknown = binder.source.free_vars() - bound
            if unknown:
                raise CalculusError(
                    f"binder {binder!r} uses unbound variable(s) {sorted(unknown)}"
                )
            bound.add(binder.var)
        used = frozenset()
        if self.condition is not None:
            used |= self.condition.free_vars()
        if isinstance(self.result, dict):
            for expr in self.result.values():
                used |= expr.free_vars()
        else:
            used |= self.result.free_vars()
        unknown = used - bound
        if unknown:
            raise CalculusError(f"query uses unbound variable(s) {sorted(unknown)}")

    def evaluate(self, ctx: QueryContext) -> list[Any]:
        """Reference nested-loop evaluation; returns constructed results."""
        results: list[Any] = []
        self._loop(ctx, 0, {}, results)
        return results

    def _loop(self, ctx, depth, bindings, results) -> None:
        if depth == len(self.binders):
            if self.condition is None or bool(
                self.condition.evaluate(ctx, bindings)
            ):
                results.append(self._construct(ctx, bindings))
            return
        binder = self.binders[depth]
        source = binder.source.evaluate(ctx, bindings)
        for member in ctx.members(source):
            bindings[binder.var] = member
            self._loop(ctx, depth + 1, bindings, results)
        bindings.pop(binder.var, None)

    def _construct(self, ctx, bindings):
        if isinstance(self.result, dict):
            return {
                label: expr.evaluate(ctx, bindings)
                for label, expr in self.result.items()
            }
        return self.result.evaluate(ctx, bindings)

    def __repr__(self) -> str:
        parts = " and ".join(repr(b) for b in self.binders)
        where = f" where {self.condition!r}" if self.condition is not None else ""
        return f"{{{self.result!r} : {parts}{where}}}"


def _binder_var(var: "str | Var") -> str:
    return var.name if isinstance(var, Var) else var


def variables(*names: str) -> tuple[Var, ...]:
    """Convenience: ``e, d, m = variables("e", "d", "m")``."""
    return tuple(Var(name) for name in names)
