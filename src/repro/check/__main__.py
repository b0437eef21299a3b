"""CLI reproducer entry point: ``python -m repro.check --seed N --case K``.

Every oracle failure prints exactly this invocation, so a reported bug
can be replayed (and shrunk) with one copy-paste.  Exit status is 0 when
the case passes, 1 when the oracle still fails — so the reproducer
doubles as a regression guard in shell pipelines.
"""

from __future__ import annotations

import argparse
import sys

from .differential import PlanMemo, run_differential_case
from .generate import generate_case
from .lifting import run_lifting_case
from .report import describe_case
from .schedule import run_schedule_case
from .sharded import run_stack_case, run_stack_range
from .shrink import shrink_case
from .soak import oracle_database, run_soak
from .temporal import run_temporal_case


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Replay one generated oracle case (or a soak range).",
    )
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--case", type=int, default=None,
                        help="case index; omit to soak a whole range")
    parser.add_argument(
        "--oracle",
        choices=("differential", "temporal", "schedule", "sharded",
                 "cluster", "lifting"),
        default="differential",
    )
    parser.add_argument(
        "--bug", choices=("stale-memo", "skip-maintenance"), default=None,
        help="inject a known bug (test-only) so the oracle must fail",
    )
    parser.add_argument(
        "--shrink", action="store_true",
        help="on failure, print the minimal shrunk case spec",
    )
    parser.add_argument("--cases", type=int, default=20,
                        help="range size when --case is omitted")
    return parser


def _run_differential(args) -> int:
    spec = generate_case(args.seed, args.case)
    memo = PlanMemo(ignore_epochs=args.bug == "stale-memo")
    report = run_differential_case(
        spec,
        memo=memo,
        skip_maintenance=args.bug == "skip-maintenance",
    )
    if report.ok:
        print(
            f"ok: seed={args.seed} case={args.case} "
            f"{report.evaluations} evaluations agree on all four paths"
        )
        return 0
    for mismatch in report.mismatches:
        print(mismatch.describe())
    if args.shrink:
        def still_fails(candidate) -> bool:
            rerun = run_differential_case(
                candidate,
                memo=PlanMemo(ignore_epochs=args.bug == "stale-memo"),
                skip_maintenance=args.bug == "skip-maintenance",
                stop_at_first=True,
            )
            return not rerun.ok

        print("\nshrunk reproducer:")
        print(describe_case(shrink_case(spec, still_fails)))
    return 1


def _run_temporal(args) -> int:
    report = run_temporal_case(oracle_database(), args.seed, args.case)
    if report.ok:
        print(
            f"ok: seed={args.seed} case={args.case} "
            f"{report.reads} temporal reads agree with the shadow"
        )
        return 0
    for problem in report.problems:
        print(problem)
    return 1


#: how each stack oracle names what agreed
_STACKS = {
    "sharded": "on both stores",
    "cluster": "across the baseline, the in-process cluster, and real "
               "worker processes",
}


def _run_stacks(args) -> int:
    report = run_stack_case(args.seed, args.case, oracle=args.oracle)
    if report.ok:
        print(
            f"ok: seed={args.seed} case={args.case} "
            f"{report.statements} statements agree {_STACKS[args.oracle]} "
            f"({report.commits} commits, "
            f"{report.cross_shard_commits} cross-shard)"
        )
        return 0
    for mismatch in report.mismatches:
        print(mismatch.describe())
    return 1


def _run_lifting(args) -> int:
    report = run_lifting_case(args.seed, args.case)
    if report.ok:
        print(
            f"ok: seed={args.seed} case={args.case} "
            f"{report.selects} selects agree unlifted, lifted cold and "
            f"lifted warm ({report.warm_hits} served a block compiled for "
            "other literals)"
        )
        return 0
    for problem in report.problems:
        print(problem)
    return 1


def _run_schedule(args) -> int:
    report = run_schedule_case(oracle_database(), args.seed, args.case)
    if report.ok:
        print(
            f"ok: seed={args.seed} case={args.case} "
            f"{report.commits} commits / {report.aborts} aborts, "
            f"history serializable (digest {report.digest[:12]})"
        )
        return 0
    for problem in report.problems:
        print(problem)
    return 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.case is None:
        if args.oracle == "cluster":
            report = run_stack_range(args.seed, args.cases, oracle="cluster")
            if report.ok:
                print(
                    f"ok: seed={args.seed} cases={args.cases} "
                    f"{report.statements} statements agree across all "
                    f"three stacks ({report.commits} commits, "
                    f"{report.cross_shard_commits} cross-shard)"
                )
                return 0
            for mismatch in report.mismatches:
                print(mismatch.describe())
            return 1
        metrics = run_soak(args.seed, diff_cases=args.cases)
        for key, value in sorted(metrics.items()):
            if key != "problem_details":
                print(f"{key}: {value}")
        return 0
    if args.oracle == "differential":
        return _run_differential(args)
    if args.oracle == "temporal":
        return _run_temporal(args)
    if args.oracle in _STACKS:
        return _run_stacks(args)
    if args.oracle == "lifting":
        return _run_lifting(args)
    return _run_schedule(args)


if __name__ == "__main__":
    sys.exit(main())
