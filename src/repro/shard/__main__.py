"""CLI reproducer entry point: ``python -m repro.shard --seed N --kill K``.

Runs the seeded 2PC crash sweep (:func:`repro.shard.soak.run_shard_soak`)
over the host kind ``--host`` names — ``memory`` (workers in this
process, killed by exception) or ``process`` (forked workers on
``FileDisk``, killed by SIGKILL) — and prints its digest; every
violated invariant prints a copy-pasteable reproducer, and ``--kill K``
replays exactly one protocol window — the same contract as ``python -m
repro.dr`` and ``python -m repro.check``.
Exit status 0 when every invariant holds, 1 otherwise, so the reproducer
doubles as a regression guard in shell pipelines.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cluster import ShardedGemStone
from .soak import run_shard_soak


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.shard",
        description="2PC crash sweep (kill the coordinator and every "
        "participant at every protocol window; prove atomicity).",
    )
    parser.add_argument("--host", choices=("memory", "process"),
                        default="memory", help="where the workers run")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--transactions", type=int, default=6)
    parser.add_argument(
        "--kill", type=int, default=None,
        help="replay one kill point: the global window index the sweep "
        "numbers (coordinator windows first, then each worker's; "
        "default: sweep every window)",
    )
    parser.add_argument("--stride", type=int, default=1,
                        help="subsample kill windows (smoke runs)")
    parser.add_argument("--json", action="store_true",
                        help="print the digest as JSON")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cluster_class = ShardedGemStone
    if args.host == "process":
        from .procs import ProcCluster as cluster_class
    try:
        report = run_shard_soak(
            seed=args.seed,
            shards=args.shards,
            transactions=args.transactions,
            stride=args.stride,
            kill_points=[args.kill] if args.kill is not None else None,
            cluster_class=cluster_class,
        )
    except ValueError as error:
        print(f"error: {error}")
        return 2
    if args.json:
        print(json.dumps(report.digest(), indent=2, sort_keys=True))
    else:
        digest = report.digest()
        print(
            f"shard soak ({args.host} hosts): seed={digest['seed']} "
            f"shards={digest['shards']} "
            f"windows={digest['total_windows']} "
            f"kills={digest['kill_points_run']} "
            f"acked_checked={digest['acked_checked']} "
            f"resolved={digest['in_doubt_resolved']} "
            f"liveness={digest['liveness_commits']}"
        )
    for failure in report.failures:
        print(failure.describe())
    if report.ok:
        print("ok: zero acked loss, zero half-committed state, "
              "nothing left in doubt")
        return 0
    print(f"FAILED: {len(report.failures)} invariant violations")
    return 1


if __name__ == "__main__":
    sys.exit(main())
