"""The contract entry point: one workload, one mode, one JSON line.

    python3 benchmarks/e2e/run.py --workload commit_wide --seed 7 --seconds 10 --trace 0

The last line of standard output is the result object; the line before
it is the run's manifest (host, op counts, noise sentinel, flush
policy).  ``--scale`` shrinks the op counts (``--quick`` of
``python -m benchmarks.e2e`` passes 0.01).
"""

import argparse
import json
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)


def share_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU.

    A client and a server that take turns fit on one CPU, and left to
    itself the scheduler sometimes parks them on two: each hand-over
    then wakes an idle virtual CPU through the hypervisor, which costs
    more than the op (0.19 ms -> 0.55 ms on ``read_hot``) and comes and
    goes from run to run.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        print(f"no system under test at {_ROOT}/src/repro", file=sys.stderr)
        return 2
    share_one_cpu()
    from benchmarks.e2e.harness import run_workload
    from benchmarks.e2e.workloads import ALL

    if args.workload not in ALL:
        print(f"unknown workload {args.workload!r}; one of {list(ALL)}",
              file=sys.stderr)
        return 2
    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), scale=args.scale)
    print(json.dumps({"manifest": outcome["manifest"]}))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
