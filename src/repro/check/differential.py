"""The four-way differential oracle over generated calculus queries.

Every generated query is evaluated four ways at every scheduled point
of its case's history:

1. **reference** — the naive shadow evaluator (:mod:`.reference`);
2. **uncached** — fresh calculus→algebra translation, no directories;
3. **memoized** — the plan a warm production-style memo serves, keyed
   on ``(query, store token, class epoch, directory epoch)`` exactly
   like :mod:`repro.opal.declarative`'s block memos;
4. **optimized** — a fresh :func:`~repro.stdm.optimize.best_plan`
   (index-aware, join-fused).

The three plans run on the algebra's one executor.  All four row sets
are canonicalized to sorted strings and must be *identical*; any
disagreement fails the case at that query and epoch.

Two test-only bugs (``--bug``) must be caught: ``stale-memo`` builds the
memo with ``ignore_epochs=True``, so it keeps serving plans compiled
against directories that have since been dropped; ``skip-maintenance``
commits without directory maintenance, so indexes go stale.
"""

from __future__ import annotations

from typing import Any, Optional

from ..perf import class_epoch
from ..perf.coherence import verify_cache_coherence
from ..stdm.optimize import best_plan
from ..stdm.translate import translate
from .generate import generate_case
from .materialize import CaseEnv, canon_shadow
from .reference import evaluate_reference
from .shrink import shrink_case
from .spec import CaseSpec, QuerySpec, case_key, describe_case

PATHS = ("reference", "uncached", "memoized", "optimized")


class PlanMemo:
    """A production-shaped plan memo for the oracle's "warm cache" path.

    The correct key mirrors :mod:`repro.opal.declarative`: the query
    identity plus the store token, the class-hierarchy epoch, and the
    directory-manager epoch — so any directory create/drop forces a
    re-plan.  ``ignore_epochs=True`` drops the epochs from the key,
    reproducing the classic staleness bug the oracle exists to catch.
    """

    def __init__(self, ignore_epochs: bool = False) -> None:
        self.ignore_epochs = ignore_epochs
        self._plans: dict[tuple, Any] = {}
        self.hits = 0
        self.misses = 0

    def plan_for(self, env: CaseEnv, query: QuerySpec):
        key: tuple = (case_key(query), env.store.perf.store_token)
        if not self.ignore_epochs:
            key += (class_epoch.value, env.directory_manager.epoch)
        plan = self._plans.get(key)
        if plan is not None:
            self.hits += 1
            env.store.perf.plan_hits += 1
            return plan
        self.misses += 1
        env.store.perf.plan_misses += 1
        plan = best_plan(env.compile_query(query), env.directory_manager)
        self._plans[key] = plan
        return plan


def _plan_directories(plan) -> list:
    from ..stdm.algebra import IndexEq, IndexRange

    found = []
    if isinstance(plan, (IndexEq, IndexRange)):
        found.append(plan.directory)
    for child in plan.children():
        found.extend(_plan_directories(child))
    return found


def _stale_plan_detail(env: CaseEnv, plan) -> str:
    """Non-empty when *plan* probes a directory no longer maintained.

    A dropped directory stops receiving commit maintenance, so a cached
    plan still holding one is incoherent even before its rows diverge —
    with correct epoch keying the memo can never serve such a plan."""
    live = set(map(id, env.directory_manager.all_directories()))
    stale = [d for d in _plan_directories(plan) if id(d) not in live]
    if not stale:
        return ""
    return (
        "memoized plan probes dropped directories: "
        + ", ".join(f"!{d.path}" for d in stale)
    )


def _evaluate_paths(
    env: CaseEnv, query: QuerySpec, memo: PlanMemo
) -> tuple[dict[str, list[str]], str]:
    """All four row sets (canonicalized, sorted) + any staleness detail."""
    time = env.time_of_epoch(query.at_epoch)
    reference = sorted(
        canon_shadow(row)
        for row in evaluate_reference(env.shadow, query, time)
    )
    compiled = env.compile_query(query)
    ctx = env.context(query.at_epoch)
    uncached = sorted(
        env.canon_real(row)
        for row in translate(compiled).run(ctx)
    )
    memo_plan = memo.plan_for(env, query)
    memoized = sorted(
        env.canon_real(row)
        for row in memo_plan.run(env.context(query.at_epoch))
    )
    optimized_plan = best_plan(compiled, env.directory_manager)
    optimized = sorted(
        env.canon_real(row)
        for row in optimized_plan.run(env.context(query.at_epoch))
    )
    rows = {
        "reference": reference,
        "uncached": uncached,
        "memoized": memoized,
        "optimized": optimized,
    }
    return rows, _stale_plan_detail(env, memo_plan)


class Differential:
    """Reference, uncached, memoized and optimized plans agree on every query."""

    #: ``bug`` injects a known one (test-only), so the oracle must fail
    OPTIONS = {"seed": 2026, "bug": (None, "stale-memo", "skip-maintenance")}
    COUNTS = ("cases", "queries", "evaluations", "memo_hits", "memo_misses")
    PREFIX, FAILED = "diff", "mismatches"

    def __init__(self, seed: int, bug: Optional[str] = None) -> None:
        self.seed, self.bug = seed, bug

    def run(self, case: int, fail, counts: dict) -> None:
        self.replay(generate_case(self.seed, case), fail, counts)

    def replay(self, spec: CaseSpec, fail, counts: dict, first: bool = False) -> None:
        """Replay one case's history, cross-checking queries at each point
        (up to the *first* divergence, for the shrinker)."""
        counts["cases"] += 1
        counts["queries"] += len(spec.queries)
        memo = PlanMemo(ignore_epochs=self.bug == "stale-memo")
        env = CaseEnv(spec, skip_maintenance=self.bug == "skip-maintenance")
        for epoch in range(spec.n_epochs + 1):
            if epoch > 0:
                env.apply_epoch(epoch)
            for q_index, query in enumerate(spec.queries):
                if epoch not in query.eval_epochs:
                    continue
                rows, stale_detail = _evaluate_paths(env, query, memo)
                counts["evaluations"] += 1
                divergent = [n for n in PATHS if rows[n] != rows["reference"]]
                if divergent or stale_detail:
                    fail(
                        f"mismatch: query {q_index} at epoch {epoch}"
                        + (f", {'/'.join(divergent)} differ from reference"
                           if divergent else ""),
                        "\n".join([stale_detail] * bool(stale_detail) + [
                            f"{name:>9}: {rows[name]}" for name in PATHS
                        ]),
                    )
                    if first:
                        break
            else:
                continue
            break
        counts["memo_hits"] += memo.hits
        counts["memo_misses"] += memo.misses
        problems = verify_cache_coherence(env.store)
        if problems:
            fail(f"cache coherence at epoch {env.applied_epoch}",
                 "\n".join(problems))

    def fails(self, spec: CaseSpec) -> bool:
        """Whether *spec* still fails: the shrinker's predicate."""
        failures = []
        self.replay(spec, lambda *failure: failures.append(failure),
                    dict.fromkeys(self.COUNTS, 0), first=True)
        return bool(failures)

    def shrink(self, case: int) -> str:
        """The minimal spec of *case* that still fails, rendered."""
        return describe_case(shrink_case(generate_case(self.seed, case), self.fails))
