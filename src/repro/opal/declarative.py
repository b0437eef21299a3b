"""Declarative select blocks: OPAL blocks translated to set calculus.

Section 6: "The Compiler requires some modifications from the ST80
compiler ... a large addition is needed to translate calculus
expressions into procedural form."  In this reproduction the recognizer
runs at ``select:``/``reject:`` time: if the block's AST is a pure
condition over its parameter — paths, literals, comparisons,
arithmetic, ``includes:``, ``and:``/``or:``/``not`` — it becomes a
:class:`~repro.stdm.calculus.SetQuery`, is translated to algebra, and is
optimized against the registered directories, so an indexed selection
never scans.  Anything else (outer-variable capture, general message
sends, multiple statements) falls back to procedural iteration, which is
exactly the paper's "calculus ... can include procedural parts".

A unary message in a block (``e salary``) is treated as an element fetch
only when it provably means that: either no class in the store defines
the selector as a method, or every definition is a simple same-named
getter (``salary ^salary`` compiles to ``PUSH_INSTVAR salary; RETURN``).
Otherwise the block is procedural — correctness over speed.
"""

from __future__ import annotations

import time as _time
from typing import Any, Optional

from ..core.classes import GemClass
from ..core.objects import ColumnObject, GemObject
from ..core.paths import Path, Step
from ..core.values import Ref
from ..errors import GemStoneError, QueryBudgetExceeded
from ..perf.epochs import class_epoch
from ..stdm.calculus import (
    And,
    Apply,
    Compare,
    Const,
    Expr,
    In,
    Not,
    Or,
    Param,
    PathApply,
    QueryContext,
    SetQuery,
    Var,
)
from ..stdm.optimize import best_plan
from .bytecodes import Op
from .nodes import BlockNode, Literal, MessageSend, PathFetch, VarRef
from .tokens import Slot


class _NotDeclarative(Exception):
    """Internal: this block cannot be translated; run it procedurally."""


_COMPARISONS = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "=": "==", "~=": "!="}
_ARITHMETIC = {"+", "-", "*", "/"}


def selector_is_element_fetch(store, selector: str) -> bool:
    """True if a unary *selector* can only mean an element fetch.

    Either no class defines it, or every definition is the trivial
    getter of the same-named instance variable.
    """
    stores = [store]
    base = getattr(store, "store", None)
    if base is not None:  # the shared store behind a session overlay
        stores.append(base)
    for target in stores:
        for name in list(target.classes):
            cls = target.class_named(name)
            if not isinstance(cls, GemClass):
                continue
            method = cls.methods.get(selector)
            if method is not None and not _is_trivial_getter(method, selector):
                return False
    return True


def _is_trivial_getter(method: Any, selector: str) -> bool:
    code = getattr(method, "code", None)
    if code is None:
        return False  # a primitive: semantics unknown
    if len(code) != 2:
        return False
    return (
        code[0].op is Op.PUSH_INSTVAR
        and code[0].operand == selector
        and code[1].op is Op.RETURN_TOP
    )


class BlockTranslator:
    """Translates one block body into a calculus condition."""

    def __init__(self, store, param: str) -> None:
        self.store = store
        self.param = param

    def translate(self, block: BlockNode) -> Expr:
        if len(block.params) != 1 or block.temps:
            raise _NotDeclarative
        if len(block.body) != 1:
            raise _NotDeclarative
        return self.expression(block.body[0])

    def expression(self, node) -> Expr:
        if isinstance(node, Literal):
            if type(node.value) is Slot:
                # lifted out of the text: the condition, and the plan
                # built on it, serve every value put in this place
                return Param(node.value.index)
            if isinstance(node.value, tuple):
                return Const(list(node.value))
            return Const(node.value)
        if isinstance(node, VarRef):
            if node.name == self.param:
                return Var(self.param)
            raise _NotDeclarative  # outer capture: procedural
        if isinstance(node, PathFetch):
            return self.path(node)
        if isinstance(node, MessageSend):
            return self.message(node)
        raise _NotDeclarative

    def path(self, node: PathFetch) -> Expr:
        base = self.expression(node.base)
        steps = []
        for step in node.steps:
            if step.time is None:
                steps.append(Step(step.name))
            elif isinstance(step.time, Literal) and isinstance(
                step.time.value, int
            ):
                steps.append(Step(step.name, step.time.value))
            else:
                raise _NotDeclarative  # computed time pins stay procedural
        if isinstance(base, PathApply):
            return PathApply(base.base, Path(base.path_expr.steps + tuple(steps)))
        return PathApply(base, Path(tuple(steps)))

    def message(self, node: MessageSend) -> Expr:
        selector = node.selector
        if selector in _COMPARISONS and len(node.args) == 1:
            return Compare(
                _COMPARISONS[selector],
                self.expression(node.receiver),
                self.expression(node.args[0]),
            )
        if selector in _ARITHMETIC and len(node.args) == 1:
            from ..stdm.calculus import BinOp

            return BinOp(
                selector,
                self.expression(node.receiver),
                self.expression(node.args[0]),
            )
        if selector == "includes:":
            return In(self.expression(node.args[0]), self.expression(node.receiver))
        if selector == "between:and:":
            target = self.expression(node.receiver)
            low = self.expression(node.args[0])
            high = self.expression(node.args[1])
            return And(Compare(">=", target, low), Compare("<=", target, high))
        if selector == "not":
            return Not(self.expression(node.receiver))
        if selector in ("and:", "or:"):
            right = self.inner_block_condition(node.args[0])
            left = self.expression(node.receiver)
            return And(left, right) if selector == "and:" else Or(left, right)
        if selector in ("&", "|") and len(node.args) == 1:
            left = self.expression(node.receiver)
            right = self.expression(node.args[0])
            return And(left, right) if selector == "&" else Or(left, right)
        if selector == "isNil" and not node.args:
            return Compare("==", self.expression(node.receiver), Const(None))
        if selector == "notNil" and not node.args:
            return Not(Compare("==", self.expression(node.receiver), Const(None)))
        if not node.args and not node.to_super:
            # unary message as element fetch, when provably safe
            if selector_is_element_fetch(self.store, selector):
                base = self.expression(node.receiver)
                if isinstance(base, PathApply):
                    return PathApply(
                        base.base,
                        Path(base.path_expr.steps + (Step(selector),)),
                    )
                return PathApply(base, Path((Step(selector),)))
        raise _NotDeclarative

    def inner_block_condition(self, node) -> Expr:
        """The body of a 0-argument block (and:/or: arguments)."""
        if not isinstance(node, BlockNode) or node.params or node.temps:
            raise _NotDeclarative
        if len(node.body) != 1:
            raise _NotDeclarative
        return self.expression(node.body[0])


#: memoized "this block cannot be translated" (distinct from None results)
_NOT_DECLARATIVE = object()

#: per-compiled-block memo caps: one translation slot per store, a
#: handful of plans (same block over several collections); cleared
#: wholesale on overflow since stale-epoch keys just accumulate
_TRANSLATION_MEMO_MAX = 16
_PLAN_MEMO_MAX = 32

#: compiled blocks a session keeps by the shape of their text (LRU, in
#: the session store's ``StoreCaches``): the memos above only pay off if
#: the block they hang on is found again.  Small on purpose — the cache
#: is per session, an eight-conjunct select with its AST, translation
#: and plan is about 13 KB, and a front door holds thousands of
#: sessions; the shapes a host sends are few
COMPILE_CACHE_MAX = 64


def _cached_condition(store, perf, compiled, block_ast, param):
    """The block's calculus condition, memoized on the compiled block.

    The memo key is (store token, class epoch): translation consults the
    store's classes (trivial-getter recognition), so any hierarchy
    change — method (re)definition, new class, overlay reset — re-runs
    the recognizer.  Returns :data:`_NOT_DECLARATIVE` for untranslatable
    blocks (also memoized: the failure repeats every call otherwise).

    The second element of the returned pair is cache provenance for the
    slow-query log: ``"memo"``, ``"fresh"``, or ``"uncached"``.
    """
    if perf is None or not perf.enabled:
        try:
            return BlockTranslator(store, param).translate(block_ast), "uncached"
        except _NotDeclarative:
            return _NOT_DECLARATIVE, "uncached"
    memo = getattr(compiled, "calc_memo", None)
    if memo is None:
        memo = {}
        compiled.calc_memo = memo
    key = (perf.store_token, class_epoch.value)
    cached = memo.get(key)
    if cached is not None:
        perf.translation_hits += 1
        return cached, "memo"
    perf.translation_misses += 1
    try:
        condition = BlockTranslator(store, param).translate(block_ast)
    except _NotDeclarative:
        condition = _NOT_DECLARATIVE
    if len(memo) >= _TRANSLATION_MEMO_MAX:
        memo.clear()
    memo[key] = condition
    return condition, "fresh"


def _collection_oid(collection) -> Optional[int]:
    """The oid when *collection* names one stored set object."""
    if type(collection) in (GemObject, ColumnObject) or isinstance(collection, Ref):
        return collection.oid
    return None  # GemClass: don't memoize


def try_declarative_filter(store, collection, closure, negate: bool) -> Optional[list]:
    """Run a select:/reject: block declaratively, or return None.

    Returns the chosen member list on success.  The plan is optimized
    against the engine's Directory Manager, and evaluation honours the
    session's time dial.  Both the block→calculus translation and the
    optimized plan are memoized on the compiled block; see
    ``docs/performance.md`` for the keys and invalidation triggers.
    """
    engine = getattr(store, "opal_runtime", None)
    compiled = getattr(closure, "compiled", None)
    block_ast = getattr(compiled, "ast", None)
    if engine is None or block_ast is None:
        return None
    if len(getattr(compiled, "params", ())) != 1:
        return None
    param = compiled.params[0]
    perf = getattr(store, "perf", None)
    condition, translation_provenance = _cached_condition(
        store, perf, compiled, block_ast, param
    )
    if condition is _NOT_DECLARATIVE:
        return None
    directory_manager = engine.directory_manager
    dm_epoch = directory_manager.epoch if directory_manager is not None else -1
    owner_oid = _collection_oid(collection)
    plan = None
    plan_key = None
    plan_provenance = "uncached"
    if perf is not None and perf.enabled and owner_oid is not None:
        plan_key = (
            perf.store_token, class_epoch.value, dm_epoch, negate, owner_oid,
        )
        plan_memo = getattr(compiled, "plan_memo", None)
        if plan_memo is None:
            plan_memo = {}
            compiled.plan_memo = plan_memo
        plan = plan_memo.get(plan_key)
        if plan is not None:
            perf.plan_hits += 1
            plan_provenance = "memo"
    if plan is None:
        if negate:
            condition = Not(condition)
        # bind the collection by Ref, not by instance: a cached plan
        # must re-dereference at run time so ObjectCache evictions (and
        # later commits) can never serve it a stale set object
        source = Const(Ref(owner_oid)) if owner_oid is not None else Const(collection)
        query = SetQuery(
            result=Var(param),
            binders=[(Var(param), source)],
            condition=condition,
        )
        plan = best_plan(query, directory_manager)
        if plan_key is not None:
            perf.plan_misses += 1
            plan_provenance = "fresh"
            plan_memo = compiled.plan_memo
            if len(plan_memo) >= _PLAN_MEMO_MAX:
                plan_memo.clear()
            plan_memo[plan_key] = plan
    dial = getattr(store, "time_dial", None)
    time = dial.time if dial is not None else None
    budget = engine.budget
    if budget is not None:
        # one unit for the query itself; per-member fuel is charged by
        # the context during execution (no O(n) pre-count of the input)
        budget.charge_steps(1)
    context = QueryContext(
        store, time, directory_manager, budget, closure.literals,
        dialed=time is not None,
    )
    obs = getattr(engine, "obs", None)
    started = _time.perf_counter()
    try:
        chosen = plan.run(context)
    except QueryBudgetExceeded:
        if obs is not None:
            _log_query(
                obs, compiled, block_ast, plan, context, started,
                negate, translation_provenance, plan_provenance,
                outcome="killed",
            )
        raise  # a dead budget must kill the query, not go procedural
    except GemStoneError:
        return None  # fall back to procedural semantics
    if obs is not None:
        _log_query(
            obs, compiled, block_ast, plan, context, started,
            negate, translation_provenance, plan_provenance,
            result_count=len(chosen),
        )
    return chosen


def _log_query(
    obs, compiled, block_ast, plan, context, started,
    negate, translation_provenance, plan_provenance,
    result_count: Optional[int] = None, outcome: str = "ok",
) -> None:
    """Report one finished declarative query to the slow-query log."""
    from ..obs.slowlog import describe_plan, render_block

    elapsed_ms = (_time.perf_counter() - started) * 1e3
    # rendered only if read, later: take now what could change by then
    params, examined = tuple(context.params), context.examined
    request_id = obs.tracer.current_request

    def render() -> dict:
        # the block and the plan serve every text of their shape: print
        # both with the literals of the execution being reported
        entry = {
            "source": render_block(block_ast, params),
            "plan": describe_plan(plan, params),
            "candidates": examined,
            "elapsed_ms": elapsed_ms,
            "negate": negate,
            "translation": translation_provenance,
            "plan_cache": plan_provenance,
            "outcome": outcome,
            "request_id": request_id,
        }
        if result_count is not None:
            entry["result_count"] = result_count
        return entry

    obs.slow_queries.offer(elapsed_ms, render)
    obs.registry.inc("query.declarative")
    if obs.tracer.enabled:
        obs.tracer.event(
            "query.select", elapsed_ms,
            candidates=context.examined, outcome=outcome,
        )
