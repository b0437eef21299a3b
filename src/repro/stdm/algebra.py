"""The STDM set algebra: executable query plans.

"We have developed a set algebra, and an algorithm to translate a
set-calculus expression to a set-algebra expression" (section 5.1) —
this module is the algebra half.  A plan is a tree of operators over
streams of variable bindings:

* :class:`Unit` — the empty binding (the stream's seed);
* the drawing operators, each binding a variable to the members one key
  per input row draws, through the one loop of :class:`_Draw` (fuel per
  member drawn, reuse while the key repeats):

  - :class:`BindScan` — the dependent product: the key is a set-valued
    expression's value, and it draws that set's members;
  - :class:`IndexEq` / :class:`IndexRange` — associative variants: the
    key is a value or a bracket, and it draws from a directory instead
    of scanning;
  - :class:`HashJoin` — a fused equality join: the build side is keyed
    once per execution, and each row's probe key draws its matches
    instead of rescanning (O(n+m), not O(n·m));

* :class:`Filter` — restriction by a calculus predicate;
* :class:`ConstructResult` — build the output tuples.

There is one executor.  Plans stream :class:`BindingBatch` blocks of at
most :data:`DEFAULT_BATCH_SIZE` rows, evaluating predicates and paths
over whole columns via :meth:`Expr.evaluate_column` so interpreter
dispatch is amortized out of the inner loop; a single binding is a
batch of one through the same code.  Plans are held to the nested-loop
:meth:`SetQuery.evaluate` by the tests, and to the independent naive
evaluator in :mod:`repro.check.reference` by the differential oracle.

Each node counts the rows it produces, so plans self-report their work
(the benchmarks compare scan vs. index vs. fused plans with these
counters).  Materialized set operations (union, difference,
intersection) with entity-identity semantics round out the algebra.
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Any, Callable, Iterator, Optional, Sequence

from ..errors import DirectoryError
from .calculus import (
    _UNHASHABLE,
    NOVALUE,
    And,
    BindingBatch,
    Expr,
    QueryContext,
    _column_on,
    _hash_key,
    _MemberIndex,
    _operands,
    _unmatchable,
    value_equal,
)

#: Rows per batch.  Big enough to amortize the per-batch Python overhead
#: (a few dict/list constructions), small enough that budget kills land
#: within one batch of the row that ran out and memory stays bounded on
#: wide joins.
DEFAULT_BATCH_SIZE = 1024

#: Reserved column carrying constructed results through batch streams.
RESULT_COLUMN = "__result__"

_UNSET = object()


def _same_key(a: Any, b: Any) -> bool:
    """Conservative "same probe key" test for consecutive-key reuse."""
    try:
        return a is b or (type(a) is type(b) and bool(a == b))
    except Exception:
        return False


def _expand(
    batch: BindingBatch,
    take: list[int],
    var: str,
    values: list[Any],
    batch_size: int,
) -> Iterator[BindingBatch]:
    """Extend *batch*: output row j is input row ``take[j]`` plus
    ``var=values[j]``, re-chunked to at most *batch_size* rows."""
    total = len(values)
    columns = batch.columns
    for start in range(0, total, batch_size):
        stop = min(start + batch_size, total)
        chunk = take[start:stop]
        out = {
            name: [column[i] for i in chunk]
            for name, column in columns.items()
        }
        out[var] = values[start:stop]
        yield BindingBatch(out, stop - start)


class Plan:
    """Base class for algebra operators."""

    def __init__(self) -> None:
        self.rows_out = 0

    def batches(
        self, ctx: QueryContext, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[BindingBatch]:
        """Stream of binding batches; subclasses implement `_batches`."""
        for batch in self._batches(ctx, batch_size):
            if batch.size:
                self.rows_out += batch.size
                yield batch

    def _batches(
        self, ctx: QueryContext, batch_size: int
    ) -> Iterator[BindingBatch]:
        raise NotImplementedError

    def run(self, ctx: QueryContext) -> list[Any]:
        """Execute to completion: the constructed results, or the bindings
        as dicts when the root constructs nothing."""
        results: list[Any] = []
        for batch in self.batches(ctx):
            column = batch.columns.get(RESULT_COLUMN)
            results.extend(column if column is not None else batch.rows())
        return results

    def reset_counters(self) -> None:
        """Zero `rows_out` on this node and its inputs."""
        self.rows_out = 0
        for child in self.children():
            child.reset_counters()

    def children(self) -> Sequence["Plan"]:
        """Input plans."""
        return ()

    def explain(self, indent: int = 0) -> str:
        """A printable plan tree with row counters."""
        line = " " * indent + f"{self.describe()}  [rows_out={self.rows_out}]"
        return "\n".join(
            [line] + [child.explain(indent + 2) for child in self.children()]
        )

    def describe(self) -> str:
        """One-line operator description."""
        return type(self).__name__


class Unit(Plan):
    """Yields a single empty binding — the seed of every plan."""

    def _batches(self, ctx, batch_size):
        yield BindingBatch({}, 1)

    def describe(self):
        return "Unit"


class _Draw(Plan):
    """The drawing loop every binding operator shares.

    Each input row has a *key* — a collection to scan, a value or a
    bracket to probe a directory with, a probe value for a hash table —
    and binds *var* to each member that key draws.  A subclass supplies
    the batch's key column (:meth:`_keys`) and, once per execution, what
    one key draws (:meth:`_drawer`); this is the only loop.  It charges
    one fuel unit per member drawn *per input row*, as drawing each
    row's members through ``members()`` would (probes bypass it, so they
    are metered here); it reuses the previous row's members while
    :attr:`_same` says the key repeats; and a no-value key draws nothing
    on every operator (no-value fails every comparison, §5.2).
    """

    #: "this row's key draws what the previous row's drew"
    _same = staticmethod(_same_key)

    def __init__(self, child: Plan, var: str) -> None:
        super().__init__()
        self.child = child
        self.var = var

    def _keys(self, ctx, batch) -> list:
        """Each row's key."""
        raise NotImplementedError

    def _drawer(self, ctx) -> Callable[[Any], Sequence[Any]]:
        """What one key draws, for this execution."""
        raise NotImplementedError

    def _batches(self, ctx, batch_size):
        same = self._same
        draw = None
        last: Any = _UNSET
        drawn: Sequence[Any] = ()
        for batch in self.child.batches(ctx, batch_size):
            if draw is None:
                draw = self._drawer(ctx)  # lazy: no input rows, no build
            take: list[int] = []
            values: list[Any] = []
            for i, key in enumerate(self._keys(ctx, batch)):
                if key is NOVALUE:
                    continue
                if not same(key, last):
                    last, drawn = key, draw(key)
                if drawn:
                    take.extend([i] * len(drawn))
                    values.extend(drawn)
            ctx.charge(len(values))
            yield from _expand(batch, take, self.var, values, batch_size)

    def children(self):
        return (self.child,)


class BindScan(_Draw):
    """Dependent product: bind *var* to each member of *source*.

    The source expression may use variables bound upstream, which is how
    the calculus's dependent binders (``m ∈ d!Managers``) execute.  A row
    reuses the previous row's members only when its collection is the
    very same object: two equal labeled sets (or Python sets) may list
    their members in different orders.  A literal or lifted source is one
    object on every row, so it is drawn once per execution.
    """

    _same = staticmethod(operator.is_)

    def __init__(self, child: Plan, var: str, source: Expr) -> None:
        super().__init__(child, var)
        self.source = source

    def _keys(self, ctx, batch):
        return self.source.evaluate_column(ctx, batch)

    def _drawer(self, ctx):
        return ctx.raw_member_list

    def describe(self):
        return f"BindScan {self.var} ∈ {self.source!r}"


class IndexEq(_Draw):
    """Associative access: bind *var* to members whose key equals a value.

    When *value* refers to earlier variables, this is the probe side of
    an index nested-loop join — the optimizer emits exactly that shape
    for join conjuncts covered by a directory.
    """

    def __init__(self, child: Plan, var: str, directory, value: Expr) -> None:
        super().__init__(child, var)
        self.directory = directory
        self.value = value

    def _keys(self, ctx, batch):
        return self.value.evaluate_column(ctx, batch)

    def _drawer(self, ctx):
        objects, lookup = ctx.store.objects, self.directory.lookup

        def draw(key):
            try:
                return objects(lookup(key, ctx.time))
            except DirectoryError:
                return []  # unindexable probe value: = can never hold
        return draw

    def describe(self):
        return (
            f"IndexEq {self.var} via {self.directory.name!r} "
            f"on !{self.directory.path} = {self.value!r}"
        )


class IndexRange(_Draw):
    """Associative access by key range (open bounds allowed).

    With both bounds set this is one bracket probe: the directory reads
    the entries between them and nothing else.  What an odd bracket
    yields is decided here and nowhere else, by the rules the scan's
    comparisons follow:

    * a bound that evaluates to no-value matches nothing — no-value
      fails every comparison (§5.2); so does a ``nil`` bound, since
      ordering against nil is an error on every other path and must not
      read as "open" here;
    * a bound the directory cannot key (:class:`DirectoryError`) matches
      nothing: the comparison can never hold;
    * an empty bracket — ``lo > hi``, or ``lo == hi`` with an exclusive
      side — matches nothing, and :meth:`Directory.range` answers it
      from the two keys alone, before touching the tree.
    """

    def __init__(
        self,
        child: Plan,
        var: str,
        directory,
        low: Optional[Expr] = None,
        high: Optional[Expr] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> None:
        super().__init__(child, var)
        self.directory = directory
        self.low = low
        self.high = high
        self.include_low = include_low
        self.include_high = include_high

    def _keys(self, ctx, batch) -> list:
        """Each row's ``(low, high)`` (None = open), or no-value for a
        row whose bracket matches nothing.

        The high bound is read only on the rows whose low bound leaves
        them open, as a row that fails its low bound never asks for it.
        """
        size = batch.size
        lows = highs = [None] * size
        live = [True] * size
        if self.low is not None:
            lows = self.low.evaluate_column(ctx, batch)
            live = [low is not NOVALUE and low is not None for low in lows]
        if self.high is not None:
            highs = _column_on(self.high, ctx, batch, live)
            live = [
                open_ and high is not NOVALUE and high is not None
                for open_, high in zip(live, highs)
            ]
        return [
            (low, high) if open_ else NOVALUE
            for open_, low, high in zip(live, lows, highs)
        ]

    def _probe(self, ctx, low, high) -> list[int]:
        """The bracket's oids: none when it is empty or unindexable."""
        try:
            return list(self.directory.range(
                low, high, ctx.time, self.include_low, self.include_high
            ))
        except DirectoryError:
            return []

    def _drawer(self, ctx):
        objects = ctx.store.objects
        return lambda bounds: objects(self._probe(ctx, *bounds))

    def describe(self):
        lo = "(" if not self.include_low else "["
        hi = ")" if not self.include_high else "]"
        low = "-inf" if self.low is None else repr(self.low)
        high = "+inf" if self.high is None else repr(self.high)
        return (
            f"IndexRange {self.var} via {self.directory.name!r} "
            f"on !{self.directory.path} {lo}{low}, {high}{hi}"
        )


class HashJoin(_Draw):
    """Fused equality join: build the inner side once, probe per row.

    The optimizer rewrites a dependent ``BindScan`` + ``Filter`` pair
    whose conjunct equates an expression over *var* (``member_key``)
    with an expression over earlier variables (``probe_key``) — the
    O(n·m) nested rescan — into this operator.  The inner collection is
    materialized and keyed once per execution, charging one fuel unit
    per member (one scan of the build side); each input row then emits
    its matches in member order, charging one unit per emitted candidate
    (the ``IndexEq`` precedent: probes bypass ``members()``).  The table
    belongs to the execution, never to the plan, which sessions share.

    Keys follow ``value_equal``: objects/Refs join by oid, NOVALUE and
    NaN match nothing, and unhashable key values fall back to a linear
    ``value_equal`` scan so exotic :class:`Apply` keys stay correct.
    """

    def __init__(
        self,
        child: Plan,
        var: str,
        source: Expr,
        probe_key: Expr,
        member_key: Expr,
        conjunct: Optional[Expr] = None,
    ) -> None:
        super().__init__(child, var)
        self.source = source
        self.probe_key = probe_key
        self.member_key = member_key
        self.conjunct = conjunct

    def _keys(self, ctx, batch):
        return self.probe_key.evaluate_column(ctx, batch)

    def _drawer(self, ctx):
        collection = self.source.evaluate(ctx, {})
        members = list(ctx.members(collection))  # one charged build-side scan
        batch = BindingBatch({self.var: members}, len(members))
        keys = self.member_key.evaluate_column(ctx, batch)
        table: dict[Any, list] = {}
        fallback: list[tuple[int, Any, Any]] = []
        pairs: list[tuple[int, Any, Any]] = []
        for pos, (member, key) in enumerate(zip(members, keys)):
            if _unmatchable(key):
                continue
            pairs.append((pos, member, key))
            hkey = _hash_key(key)
            if hkey is _UNHASHABLE:
                fallback.append((pos, member, key))
            else:
                table.setdefault(hkey, []).append((pos, member))
        return partial(self._matches, (table, fallback, pairs))

    def _matches(self, built, key) -> Sequence[Any]:
        """Members joining *key*, in member (build) order."""
        table, fallback, pairs = built
        if _unmatchable(key):
            return ()
        hkey = _hash_key(key)
        if hkey is _UNHASHABLE:
            # unhashable probe: the nested loop's answer is a full scan
            return [m for _pos, m, k in pairs if value_equal(key, k)]
        bucket = table.get(hkey, ())
        extra = [(pos, m) for pos, m, k in fallback if value_equal(key, k)]
        if extra:
            bucket = sorted([*bucket, *extra], key=lambda pm: pm[0])
        return [m for _pos, m in bucket]

    def describe(self):
        return (
            f"HashJoin {self.var} ∈ {self.source!r} "
            f"on {self.member_key!r} == {self.probe_key!r}"
        )


class Filter(Plan):
    """Restriction: keep bindings satisfying a calculus predicate."""

    def __init__(self, child: Plan, predicate: Expr) -> None:
        super().__init__()
        self.child = child
        self.predicate = predicate

    def _batches(self, ctx, batch_size):
        predicate = self.predicate
        for batch in self.child.batches(ctx, batch_size):
            column = predicate.evaluate_column(ctx, batch)
            # boolean mask + compress keeps the whole keep/gather loop
            # at C speed (truthiness, count, and per-column gather)
            mask = list(map(bool, column))
            live = sum(mask)
            if live == batch.size:
                yield batch
            elif live:
                yield batch.select_mask(mask, live)

    def children(self):
        return (self.child,)

    def describe(self):
        run = _operands(self.predicate, And)  # n > 1: the optimizer fused them
        shown = " and ".join(map(repr, run))
        return f"Filter[{len(run)}] {shown}" if len(run) > 1 else f"Filter {shown}"


class ConstructResult(Plan):
    """Build output values from final bindings (the result template)."""

    def __init__(self, child: Plan, result) -> None:
        super().__init__()
        self.child = child
        self.result = result

    def _batches(self, ctx, batch_size):
        result = self.result
        for batch in self.child.batches(ctx, batch_size):
            if not isinstance(result, dict):
                built = list(result.evaluate_column(ctx, batch))
            elif result:
                columns = [e.evaluate_column(ctx, batch) for e in result.values()]
                # dict(zip(...)) builds each row at C speed — far cheaper
                # than a per-row dict comprehension indexing the columns
                built = [dict(zip(result, row)) for row in zip(*columns)]
            else:
                built = [{} for _ in range(batch.size)]
            yield BindingBatch({RESULT_COLUMN: built}, batch.size)

    def children(self):
        return (self.child,)

    def describe(self):
        return f"Construct {self.result!r}"


# --------------------------------------------------------------------------
# materialized set operations
# --------------------------------------------------------------------------

def union(a, b) -> list:
    """Members of *a* or *b*, identity-deduplicated, order-preserving."""
    result = list(a)
    index = _MemberIndex(result)
    for member in b:
        if member not in index:
            result.append(member)
            index.add(member)
    return result


def intersection(a, b) -> list:
    """Members of *a* also in *b*."""
    index = _MemberIndex(b)
    return [m for m in a if m in index]


def difference(a, b) -> list:
    """Members of *a* not in *b*."""
    index = _MemberIndex(b)
    return [m for m in a if m not in index]


def deduplicate(members) -> list:
    """Identity-deduplicate a member list."""
    result: list = []
    index = _MemberIndex()
    for member in members:
        if member not in index:
            result.append(member)
            index.add(member)
    return result


def plan_depth(plan: Plan) -> int:
    """Number of operators along the plan's spine (for tests)."""
    depth = 1
    children = plan.children()
    if not children:
        return depth
    return 1 + max(plan_depth(child) for child in children)


def collect_operators(plan: Plan) -> list[Plan]:
    """Flatten a plan tree into a list (root first)."""
    nodes = [plan]
    for child in plan.children():
        nodes.extend(collect_operators(child))
    return nodes
