"""The STDM set algebra: executable query plans.

"We have developed a set algebra, and an algorithm to translate a
set-calculus expression to a set-algebra expression" (section 5.1) —
this module is the algebra half.  A plan is a tree of operators over
streams of variable bindings:

* :class:`Unit` — the empty binding (the stream's seed);
* :class:`BindScan` — the dependent product: for each input binding,
  bind a variable to each member of a set-valued expression;
* :class:`IndexEq` / :class:`IndexRange` — associative variants that
  draw members from a directory instead of scanning;
* :class:`HashJoin` — a fused equality join: the build side is keyed
  once, each input row probes instead of rescanning (O(n+m), not O(n·m));
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

from typing import Any, Iterator, Optional, Sequence

from ..errors import DirectoryError
from .calculus import (
    _UNHASHABLE,
    NOVALUE,
    BindingBatch,
    Expr,
    QueryContext,
    _column_on,
    _hash_key,
    _MemberIndex,
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
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    try:
        return bool(a == b)
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


class BindScan(Plan):
    """Dependent product: bind *var* to each member of *source*.

    The source expression may use variables bound upstream, which is how
    the calculus's dependent binders (``m ∈ d!Managers``) execute.
    """

    def __init__(self, child: Plan, var: str, source: Expr) -> None:
        super().__init__()
        self.child = child
        self.var = var
        self.source = source

    def _batches(self, ctx, batch_size):
        var = self.var
        source = self.source
        constant = not source.free_vars()
        members: Optional[list[Any]] = None
        for batch in self.child.batches(ctx, batch_size):
            take: list[int] = []
            values: list[Any] = []
            if constant:
                # Hoist: a constant source is materialized once per
                # execution; fuel still charges per member *per input
                # row*, as drawing each row's members would.
                if members is None:
                    collection = source.evaluate(ctx, {})
                    members = ctx.raw_member_list(collection)
                ctx.charge(len(members) * batch.size)
                count = len(members)
                for i in range(batch.size):
                    take.extend([i] * count)
                    values.extend(members)
            else:
                charged = 0
                column = source.evaluate_column(ctx, batch)
                for i, collection in enumerate(column):
                    drawn = ctx.raw_member_list(collection)
                    charged += len(drawn)
                    take.extend([i] * len(drawn))
                    values.extend(drawn)
                ctx.charge(charged)
            yield from _expand(batch, take, var, values, batch_size)

    def children(self):
        return (self.child,)

    def describe(self):
        return f"BindScan {self.var} ∈ {self.source!r}"


class IndexEq(Plan):
    """Associative access: bind *var* to members whose key equals a value.

    When *value* refers to earlier variables, this is the probe side of
    an index nested-loop join — the optimizer emits exactly that shape
    for join conjuncts covered by a directory.
    """

    def __init__(self, child: Plan, var: str, directory, value: Expr) -> None:
        super().__init__()
        self.child = child
        self.var = var
        self.directory = directory
        self.value = value

    def _probe_oids(self, ctx, key) -> Sequence[int]:
        if key is NOVALUE:
            return ()  # no-value fails every comparison, = included
        try:
            return self.directory.lookup(key, ctx.time)
        except DirectoryError:
            return ()  # unindexable probe value: = can never hold

    def _batches(self, ctx, batch_size):
        store_objects = ctx.store.objects
        value = self.value
        constant = not value.free_vars()
        const_members: Optional[list[Any]] = None
        last_key: Any = _UNSET
        last_members: Optional[list[Any]] = None
        for batch in self.child.batches(ctx, batch_size):
            if constant:
                if const_members is None:
                    key = value.evaluate(ctx, {})
                    const_members = store_objects(self._probe_oids(ctx, key))
                keys = None
            else:
                keys = value.evaluate_column(ctx, batch)
            take: list[int] = []
            values: list[Any] = []
            for i in range(batch.size):
                if constant:
                    matched = const_members
                else:
                    key = keys[i]
                    if last_members is not None and _same_key(key, last_key):
                        matched = last_members  # consecutive-key reuse
                    else:
                        matched = store_objects(self._probe_oids(ctx, key))
                        last_key, last_members = key, matched
                if matched:
                    take.extend([i] * len(matched))
                    values.extend(matched)
            ctx.charge(len(values))  # index probes bypass members(): meter here
            yield from _expand(batch, take, self.var, values, batch_size)

    def children(self):
        return (self.child,)

    def describe(self):
        return (
            f"IndexEq {self.var} via {self.directory.name!r} "
            f"on !{self.directory.path} = {self.value!r}"
        )


class IndexRange(Plan):
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
        super().__init__()
        self.child = child
        self.var = var
        self.directory = directory
        self.low = low
        self.high = high
        self.include_low = include_low
        self.include_high = include_high

    def _bounds(self, ctx, batch) -> list:
        """Each row's ``(low, high)`` (None = open), or None for no rows.

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
            (low, high) if open_ else None
            for open_, low, high in zip(live, lows, highs)
        ]

    def _probe(self, ctx, low, high) -> list[int]:
        """The bracket's oids: none when it is empty or unindexable."""
        try:
            stream = self.directory.range(
                low, high, ctx.time, self.include_low, self.include_high
            )
            first = next(stream)
        except (StopIteration, DirectoryError):
            return []
        return [first, *stream]

    def _batches(self, ctx, batch_size):
        store_objects = ctx.store.objects
        last_bounds: Any = _UNSET
        cached: Optional[list[Any]] = None
        for batch in self.child.batches(ctx, batch_size):
            take: list[int] = []
            values: list[Any] = []
            for i, bounds in enumerate(self._bounds(ctx, batch)):
                if bounds is None:
                    continue
                if cached is not None and _same_key(bounds, last_bounds):
                    # identical consecutive bounds reuse the previous probe
                    matched = cached
                else:
                    last_bounds = bounds
                    oids = self._probe(ctx, *bounds)
                    matched = cached = store_objects(oids) if oids else []
                if matched:
                    take.extend([i] * len(matched))
                    values.extend(matched)
            ctx.charge(len(values))
            yield from _expand(batch, take, self.var, values, batch_size)

    def children(self):
        return (self.child,)

    def describe(self):
        lo = "(" if not self.include_low else "["
        hi = ")" if not self.include_high else "]"
        low = "-inf" if self.low is None else repr(self.low)
        high = "+inf" if self.high is None else repr(self.high)
        return (
            f"IndexRange {self.var} via {self.directory.name!r} "
            f"on !{self.directory.path} {lo}{low}, {high}{hi}"
        )


class HashJoin(Plan):
    """Fused equality join: build the inner side once, probe per row.

    The optimizer rewrites a dependent ``BindScan`` + ``Filter`` pair
    whose conjunct equates an expression over *var* (``member_key``)
    with an expression over earlier variables (``probe_key``) — the
    O(n·m) nested rescan — into this operator.  The inner collection is
    materialized and keyed once per execution, charging one fuel unit
    per member (one scan of the build side); each input row then emits
    its matches in member order, charging one unit per emitted candidate
    (the ``IndexEq`` precedent: probes bypass ``members()``).

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
        super().__init__()
        self.child = child
        self.var = var
        self.source = source
        self.probe_key = probe_key
        self.member_key = member_key
        self.conjunct = conjunct

    def _build(self, ctx):
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
        return table, fallback, pairs

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
        if not fallback:
            return [m for _pos, m in bucket]
        extra = [
            (pos, m) for pos, m, k in fallback if value_equal(key, k)
        ]
        if not extra:
            return [m for _pos, m in bucket]
        merged = sorted([*bucket, *extra], key=lambda pm: pm[0])
        return [m for _pos, m in merged]

    def _batches(self, ctx, batch_size):
        built = None
        last_key: Any = _UNSET
        last_matches: Optional[Sequence[Any]] = None
        for batch in self.child.batches(ctx, batch_size):
            if built is None:
                built = self._build(ctx)  # lazy: no input rows, no build
            keys = self.probe_key.evaluate_column(ctx, batch)
            take: list[int] = []
            values: list[Any] = []
            for i, key in enumerate(keys):
                if last_matches is not None and _same_key(key, last_key):
                    matched = last_matches
                else:
                    matched = self._matches(built, key)
                    last_key, last_matches = key, matched
                if matched:
                    take.extend([i] * len(matched))
                    values.extend(matched)
            ctx.charge(len(values))
            yield from _expand(batch, take, self.var, values, batch_size)

    def children(self):
        return (self.child,)

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
        return f"Filter {self.predicate!r}"


class ConstructResult(Plan):
    """Build output values from final bindings (the result template)."""

    def __init__(self, child: Plan, result) -> None:
        super().__init__()
        self.child = child
        self.result = result

    def _batches(self, ctx, batch_size):
        result = self.result
        if isinstance(result, dict):
            items = list(result.items())
            labels = [label for label, _ in items]
            for batch in self.child.batches(ctx, batch_size):
                columns = [
                    expr.evaluate_column(ctx, batch) for _, expr in items
                ]
                # dict(zip(...)) builds each row at C speed — far cheaper
                # than a per-row dict comprehension indexing the columns
                if columns:
                    built = [
                        dict(zip(labels, row_values))
                        for row_values in zip(*columns)
                    ]
                else:
                    built = [{} for _ in range(batch.size)]
                yield BindingBatch({RESULT_COLUMN: built}, batch.size)
        else:
            for batch in self.child.batches(ctx, batch_size):
                column = result.evaluate_column(ctx, batch)
                yield BindingBatch({RESULT_COLUMN: list(column)}, batch.size)

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
