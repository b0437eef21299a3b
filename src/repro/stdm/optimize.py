"""Query optimization over the set algebra.

Section 4.3: "a declarative semantics allows more flexibility in
evaluating queries, and that flexibility is needed to support reasonable
optimization on queries involving large amounts of data."  Section 6:
"by having a declarative query language, we have the latitude in
processing queries to exploit fully secondary storage layout,
directories, and special hardware."

This optimizer exploits *directories*: where the naive translation would
scan a set binder and filter, it looks for a conjunct of the form

    <var>!<path>  <op>  <expr-over-earlier-vars>

with a directory registered on exactly (that set, that path), and
replaces the scan with an :class:`~repro.stdm.algebra.IndexEq` or
:class:`~repro.stdm.algebra.IndexRange`, consuming the conjunct.  A
range conjunct is paired with the first conjunct bounding the same path
from the other side, so ``lo <= e!p & e!p < hi`` is one ``[lo, hi)``
probe that reads only the entries inside the bracket rather than
everything above ``lo``.  Only binders whose source is a *constant* set
designator are indexed — a source that is itself a function of other
variables names a different set per binding, so no single directory
covers it.

Remaining conjuncts attach as filters at the earliest legal point, same
as the plain translation — except that each run of adjacent ones testing
one column with ``~=`` against row-independent values becomes one
filter over their ``and``, which the predicate kernel answers as "none
of" in one pass over the column (``Filter[n]`` in ``explain``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.objects import GemObject
from ..core.values import Ref
from .algebra import (
    BindScan,
    ConstructResult,
    HashJoin,
    IndexEq,
    IndexRange,
    Plan,
    Unit,
)
from .calculus import Compare, Const, Expr, PathApply, SetQuery, Var, _column_key, _column_term
from .translate import _attach_ready_filters, conjuncts, match_join_conjunct


#: work counter for :func:`repro.perf.stats`: a flat ``plans_built``
#: under a repeated workload is the plan memoization demonstrably working
planning_stats = {"plans_built": 0}


def reset_planning_stats() -> None:
    """Zero the planner work counter (scoped-reset hook for perf/obs)."""
    planning_stats["plans_built"] = 0


@dataclass
class IndexChoice:
    """A directory pick for one binder, recorded for `explain`-style tests."""

    var: str
    directory_name: str
    kind: str  # "eq" or "range"
    #: the conjuncts the probe consumed: one, or both sides of a bracket
    conjuncts: tuple[Expr, ...]


@dataclass
class JoinChoice:
    """A join-fusion pick for one binder (no directory involved)."""

    var: str
    kind: str  # "hash"
    conjunct: Expr


def _constant_owner_oid(source: Expr) -> Optional[int]:
    """The owner oid if *source* designates one fixed set object."""
    if isinstance(source, Const):
        value = source.value
        if isinstance(value, GemObject):
            return value.oid
        if isinstance(value, Ref):
            return value.oid
    return None


def _match_indexable(
    conjunct: Expr, var: str, bound: set[str]
) -> Optional[tuple[str, PathApply, Expr]]:
    """Match ``var!path <op> expr`` (either side); returns (op, path, expr).

    The non-path side must only use variables bound *before* this
    binder, so its value is available when the index is probed.
    """
    if not isinstance(conjunct, Compare):
        return None
    flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
    for left, right, op in (
        (conjunct.left, conjunct.right, conjunct.op),
        (conjunct.right, conjunct.left, flip[conjunct.op]),
    ):
        if (
            isinstance(left, PathApply)
            and isinstance(left.base, Var)
            and left.base.name == var
            and all(step.at is None for step in left.path_expr.steps)
            and right.free_vars() <= bound
            and op != "!="
        ):
            return op, left, right
    return None


def optimize(
    query: SetQuery, directory_manager=None
) -> tuple[Plan, list]:
    """Produce an index- and join-aware plan; returns (plan, choices made).

    Per binder, in priority order: a directory pick (which, when the
    probed value uses earlier variables, *is* an index nested-loop
    join), then hash-join fusion for an equality join conjunct with no
    covering directory, then a plain ``BindScan``.
    """
    remaining = conjuncts(query.condition)
    bound: set[str] = set()
    plan: Plan = Unit()
    choices: list = []
    for binder in query.binders:
        indexed = None
        owner_oid = (
            _constant_owner_oid(binder.source)
            if directory_manager is not None
            else None
        )
        if owner_oid is not None:
            indexed = _pick_index(
                plan, directory_manager, owner_oid, binder.var, remaining,
                bound,
            )
        if indexed is not None:
            plan, choice = indexed
            remaining = [
                c for c in remaining
                if not any(c is used for used in choice.conjuncts)
            ]
            choices.append(choice)
        else:
            fused = _pick_hash_join(binder, remaining, bound)
            if fused is not None:
                member_key, probe_key, conjunct = fused
                plan = HashJoin(
                    plan, binder.var, binder.source,
                    probe_key, member_key, conjunct,
                )
                remaining = [c for c in remaining if c is not conjunct]
                choices.append(JoinChoice(binder.var, "hash", conjunct))
            else:
                plan = BindScan(plan, binder.var, binder.source)
        bound.add(binder.var)
        plan, remaining = _attach_ready_filters(
            plan, remaining, bound, _residual_key
        )
    return ConstructResult(plan, query.result), choices


def _residual_key(conjunct: Expr):
    """The column *conjunct* tests with ``~=`` against a row-independent
    side, or None: a run of these is one filter."""
    term = _column_term(conjunct, "!=")
    return None if term is None else _column_key(term[0])


def _pick_hash_join(binder, remaining, bound):
    """Find a fusable equality join conjunct for this binder, if any.

    The binder's source must be constant (the build side is materialized
    once per execution, so it cannot depend on per-row variables).
    """
    if binder.source.free_vars():
        return None
    for conjunct in remaining:
        match = match_join_conjunct(conjunct, binder.var, bound)
        if match is not None:
            member_key, probe_key = match
            return member_key, probe_key, conjunct
    return None


_LOWER_BOUNDS = (">", ">=")


def _range_side(op: str, value: Expr) -> dict:
    """The :class:`IndexRange` arguments one ordering conjunct supplies:
    its side of the bracket, with that operator's own inclusivity."""
    inclusive = op in (">=", "<=")
    if op in _LOWER_BOUNDS:
        return {"low": value, "include_low": inclusive}
    return {"high": value, "include_high": inclusive}


def _pick_index(
    child: Plan, directory_manager, owner_oid: int, var: str, remaining, bound
) -> Optional[tuple[Plan, IndexChoice]]:
    """The index operator for this binder over *child*, if a directory
    covers one of the *remaining* conjuncts; with the choice made."""
    for position, conjunct in enumerate(remaining):
        match = _match_indexable(conjunct, var, bound)
        if match is None:
            continue
        op, path_apply, value_expr = match
        directory = directory_manager.find_directory(
            owner_oid, path_apply.path_expr
        )
        if directory is None:
            continue
        if op == "==":
            return (
                IndexEq(child, var, directory, value_expr),
                IndexChoice(var, directory.name, "eq", (conjunct,)),
            )
        bounds = _range_side(op, value_expr)
        used: tuple[Expr, ...] = (conjunct,)
        for other in remaining[position + 1:]:
            paired = _match_indexable(other, var, bound)
            if paired is None:
                continue
            other_op, other_path, other_value = paired
            if (
                other_op != "=="
                and (other_op in _LOWER_BOUNDS) != (op in _LOWER_BOUNDS)
                and other_path.path_expr == path_apply.path_expr
            ):
                # the other bound of the same key: one bracket probe
                # (later bounds on a taken side stay residual filters)
                bounds.update(_range_side(other_op, other_value))
                used = (conjunct, other)
                break
        return (
            IndexRange(child, var, directory, **bounds),
            IndexChoice(var, directory.name, "range", used),
        )
    return None


def best_plan(query: SetQuery, directory_manager=None) -> Plan:
    """The plan the system would run: indexes when directories exist,
    hash-join fusion either way."""
    planning_stats["plans_built"] += 1
    plan, _ = optimize(query, directory_manager)
    return plan
