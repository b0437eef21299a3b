"""Calculus → algebra translation.

"We have developed a set algebra, and an algorithm to translate a
set-calculus expression to a set-algebra expression" (section 5.1; the
acknowledgements credit Fred Boals and Bob Johnson with the algorithm).

The translation chains the query's binders into
:class:`~repro.stdm.algebra.BindScan` operators in declaration order
(each binder may depend on earlier variables, so this order is always
legal), and attaches each conjunct of the condition as a
:class:`~repro.stdm.algebra.Filter` at the *earliest* point where all
its variables are bound — selection pushdown falls out of the algorithm
rather than being a separate rewrite.
"""

from __future__ import annotations

from functools import reduce
from itertools import groupby
from typing import Callable, Iterator, Optional

from ..errors import TranslationError
from .algebra import BindScan, ConstructResult, Filter, Plan, Unit
from .calculus import And, Compare, Expr, SetQuery, _operands


def conjuncts(condition: Expr | None) -> list[Expr]:
    """Flatten nested conjunctions into a list of conjuncts."""
    return [] if condition is None else _operands(condition, And)


def match_join_conjunct(
    conjunct: Expr, var: str, bound: set[str]
) -> Optional[tuple[Expr, Expr]]:
    """Match a join conjunct for *var*: ``expr-over-var == expr-over-earlier``.

    Returns ``(member_key, probe_key)`` — the side evaluated per member
    of *var*'s collection and the side evaluated per input row — or
    ``None``.  The probe side must actually use earlier variables (a
    constant right-hand side is a plain selection, not a join) and use
    only variables bound before this binder.  Only ``==`` fuses: a hash
    table realizes equality, nothing else.
    """
    if not isinstance(conjunct, Compare) or conjunct.op != "==":
        return None
    for member_key, probe_key in (
        (conjunct.left, conjunct.right),
        (conjunct.right, conjunct.left),
    ):
        probe_vars = probe_key.free_vars()
        if (
            member_key.free_vars() == {var}
            and probe_vars
            and probe_vars <= bound
        ):
            return member_key, probe_key
    return None


def translate(query: SetQuery) -> Plan:
    """Translate a calculus query into an executable algebra plan.

    The result evaluates to exactly the same multiset as
    :meth:`SetQuery.evaluate` (a property the test-suite checks with
    hypothesis-generated databases).
    """
    remaining = conjuncts(query.condition)
    bound: set[str] = set()
    plan: Plan = Unit()
    for binder in query.binders:
        missing = binder.source.free_vars() - bound
        if missing:
            raise TranslationError(
                f"binder {binder!r} depends on unbound {sorted(missing)}"
            )
        plan = BindScan(plan, binder.var, binder.source)
        bound.add(binder.var)
        plan, remaining = _attach_ready_filters(plan, remaining, bound)
    if remaining:
        names = sorted(set().union(*(c.free_vars() for c in remaining)) - bound)
        raise TranslationError(f"condition uses unbound variable(s) {names}")
    return ConstructResult(plan, query.result)


def _attach_ready_filters(
    plan: Plan, remaining: list[Expr], bound: set[str],
    run_key: Callable[[Expr], object] = lambda _conjunct: None,
) -> tuple[Plan, list[Expr]]:
    """Attach every conjunct whose variables are all bound, in order; each
    run of adjacent ones with one *run_key* (not None) as one filter over
    their ``and``."""
    ready = [c for c in remaining if c.free_vars() <= bound]
    for key, run in groupby(ready, run_key):
        for predicate in (run if key is None else [reduce(And, run)]):
            plan = Filter(plan, predicate)
    return plan, [c for c in remaining if not c.free_vars() <= bound]


def filters_in(plan: Plan) -> Iterator[Filter]:
    """All Filter operators in a plan (tests inspect pushdown depth)."""
    from .algebra import collect_operators

    for node in collect_operators(plan):
        if isinstance(node, Filter):
            yield node
