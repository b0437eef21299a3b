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
are canonicalized to sorted strings and must be *identical*.  Any
disagreement is a :class:`Mismatch` carrying enough coordinates (seed,
case, query, epoch) to reproduce it with ``python -m repro.check``.

The memo can be constructed with ``ignore_epochs=True`` — the
deliberately-injected staleness bug of the acceptance criteria: such a
memo keeps serving plans compiled against directories that have since
been dropped, and the oracle must catch it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..perf import class_epoch
from ..perf.coherence import verify_cache_coherence
from ..stdm.optimize import best_plan
from ..stdm.translate import translate
from .materialize import CaseEnv, canon_shadow
from .reference import evaluate_reference
from .spec import CaseSpec, QuerySpec, case_key

PATHS = ("reference", "uncached", "memoized", "optimized")


class CheckFailure(AssertionError):
    """An oracle found a divergence; the message embeds a reproducer."""


@dataclass
class Mismatch:
    """One disagreement between evaluation paths (or oracles)."""

    seed: int
    case_index: int
    query_index: int
    eval_epoch: int
    rows: dict[str, list[str]]
    detail: str = ""
    #: the injected-bug mode active when this was found (reproducer flag)
    bug: Optional[str] = None

    def divergent_paths(self) -> list[str]:
        baseline = self.rows.get("reference")
        return [name for name, rows in self.rows.items() if rows != baseline]

    def describe(self) -> str:
        lines = [
            f"differential mismatch: seed={self.seed} case={self.case_index} "
            f"query={self.query_index} epoch={self.eval_epoch}",
        ]
        if self.detail:
            lines.append(f"  {self.detail}")
        for name in PATHS:
            if name in self.rows:
                lines.append(f"  {name:>9}: {self.rows[name]}")
        from .report import reproducer_command

        lines.append("reproduce with:")
        lines.append(
            f"  {reproducer_command(self.seed, self.case_index, bug=self.bug)}"
        )
        return "\n".join(lines)


@dataclass
class DifferentialReport:
    """Aggregate outcome of a differential run."""

    cases: int = 0
    queries: int = 0
    evaluations: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def merge(self, other: "DifferentialReport") -> None:
        self.cases += other.cases
        self.queries += other.queries
        self.evaluations += other.evaluations
        self.memo_hits += other.memo_hits
        self.memo_misses += other.memo_misses
        self.mismatches.extend(other.mismatches)


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


def run_differential_case(
    spec: CaseSpec,
    *,
    memo: Optional[PlanMemo] = None,
    skip_maintenance: bool = False,
    registry=None,
    stop_at_first: bool = False,
) -> DifferentialReport:
    """Replay one case's history, cross-checking queries at each point."""
    report = DifferentialReport(cases=1, queries=len(spec.queries))
    memo = memo if memo is not None else PlanMemo()
    bug = (
        "stale-memo" if memo.ignore_epochs
        else "skip-maintenance" if skip_maintenance
        else None
    )
    env = CaseEnv(spec, skip_maintenance=skip_maintenance)
    for epoch in range(spec.n_epochs + 1):
        if epoch > 0:
            env.apply_epoch(epoch)
        for q_index, query in enumerate(spec.queries):
            if epoch not in query.eval_epochs:
                continue
            rows, stale_detail = _evaluate_paths(env, query, memo)
            report.evaluations += 1
            if registry is not None:
                registry.inc("check.diff.evaluations")
            if len({tuple(r) for r in rows.values()}) != 1 or stale_detail:
                report.mismatches.append(
                    Mismatch(
                        seed=spec.seed,
                        case_index=spec.index,
                        query_index=q_index,
                        eval_epoch=epoch,
                        rows=rows,
                        detail=stale_detail,
                        bug=bug,
                    )
                )
                if registry is not None:
                    registry.inc("check.diff.mismatches")
                if stop_at_first:
                    break
        else:
            continue
        break
    report.memo_hits = memo.hits
    report.memo_misses = memo.misses
    problems = verify_cache_coherence(env.store)
    if problems:
        report.mismatches.append(
            Mismatch(
                seed=spec.seed,
                case_index=spec.index,
                query_index=-1,
                eval_epoch=env.applied_epoch,
                rows={},
                detail="cache coherence: " + "; ".join(problems),
                bug=bug,
            )
        )
    if registry is not None:
        registry.inc("check.diff.cases")
        registry.inc("check.diff.queries", len(spec.queries))
    return report


def run_differential_range(
    seed: int,
    cases: int,
    *,
    queries_per_case: int = 3,
    skip_maintenance: bool = False,
    ignore_epochs: bool = False,
    registry=None,
    stop_at_first: bool = False,
) -> DifferentialReport:
    """Run ``cases`` generated cases from one seed; aggregate results."""
    from .generate import generate_case

    total = DifferentialReport()
    for index in range(cases):
        spec = generate_case(seed, index, queries_per_case=queries_per_case)
        report = run_differential_case(
            spec,
            memo=PlanMemo(ignore_epochs=ignore_epochs),
            skip_maintenance=skip_maintenance,
            registry=registry,
            stop_at_first=stop_at_first,
        )
        total.merge(report)
        if stop_at_first and not total.ok:
            break
    return total
