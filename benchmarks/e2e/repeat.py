"""Run-to-run agreement: the whole benchmark N times on one checkout.

    PYTHONPATH=src python -m benchmarks.e2e.repeat --sets 2

Prints, for every (end-to-end metric, workload) pair, how much worse
the last set is than the first beside the metric's bound, and checks
that the count metrics repeat exactly on the closed-loop workloads
(one client, no timers: a count that moves is a bug in the benchmark).
A run whose noise sentinel moved by more than 10 % is repeated once, and
a workload that breaches a bound is measured once more before the
breach stands (the host's noise only adds time, so the better of the
two readings is kept).  Exits non-zero on any breach.  If ``op_p95_ms``
keeps breaching on a workload, give that workload more passes — do not
widen the bound.
"""

from __future__ import annotations

import argparse
import json
import sys

from .__main__ import QUICK_SCALE, run_all, run_one
from .catalogue import END_TO_END, WORKLOADS
from .workloads import ALL

#: (mode, metric) pairs that must repeat exactly with one client
EXACT = (
    ("untraced", "disk_bytes_per_user_byte"),
    ("untraced", "space_bytes_per_user_byte"),
    ("traced", "storage.disk_bytes_per_op"),
    ("traced", "storage.tracks_written_per_commit"),
    ("traced", "stdm.rows_examined_per_result"),
    ("traced", "shard.rpc_calls_per_op"),
)


def worse_by(metric, first: float, last: float) -> float:
    """How much worse *last* is than *first*, as a share of *first*."""
    if not first:
        return 0.0
    change = (last - first) / first
    return change if metric.better == "lower" else -change


def recheck(last: dict, name: str, seed: int, scale: float, log=print) -> None:
    """Measure *name* again; keep each metric's better reading in *last*."""
    log(f"# {name}: breach, measuring it once more")
    again = run_one(name, seed, 0, scale)["result"]
    kept = last[name]["untraced"]["result"]
    kept["failed"] += again["failed"]
    for metric in END_TO_END:
        old, new = kept["metrics"][metric.name], again["metrics"][metric.name]
        if worse_by(metric, old["value"], new["value"]) < 0:
            old["value"] = new["value"]


def compare(first: dict, last: dict, log=print) -> list[str]:
    """Print the table; returns the breaches ("workload metric: ...")."""
    breaches = []
    log(f"{'workload':18s} {'metric':28s} {'first':>12s} {'last':>12s} "
        f"{'worse by':>9s} {'bound':>6s}")
    for name in WORKLOADS:
        a = first[name]["untraced"]["result"]["metrics"]
        b = last[name]["untraced"]["result"]["metrics"]
        for metric in END_TO_END:
            delta = worse_by(metric, a[metric.name]["value"], b[metric.name]["value"])
            flag = ""
            if delta > metric.bound:
                flag = "  BREACH"
                breaches.append(f"{name} {metric.name}: worse by {delta:.3f} "
                                f"> bound {metric.bound}")
            log(f"{name:18s} {metric.name:28s} {a[metric.name]['value']:12.4f} "
                f"{b[metric.name]['value']:12.4f} {delta:+9.3f} {metric.bound:6.2f}{flag}")
        for run in (first, last):
            for mode in ("untraced", "traced"):
                failed = run[name][mode]["result"]["failed"]
                if failed:
                    breaches.append(f"{name} {mode}: {failed} ops failed")
        if ALL[name].loop != "closed":
            continue
        for mode, metric_name in EXACT:
            x = first[name][mode]["result"]["metrics"][metric_name]["value"]
            y = last[name][mode]["result"]["metrics"][metric_name]["value"]
            same = "exact" if x == y else "DIFFERS"
            log(f"{name:18s} {metric_name:36s} {x:12.4f} {y:12.4f}  {same}")
            if x != y:
                breaches.append(f"{name} {metric_name}: count moved {x} -> {y}")
    return breaches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--json", help="write every set's results to this file")
    args = parser.parse_args(argv)
    if args.sets < 2:
        parser.error("--sets must be at least 2")
    scale = QUICK_SCALE if args.quick else 1.0
    sets = []
    for number in range(args.sets):
        print(f"# set {number + 1} of {args.sets}")
        sets.append(run_all(args.seed, scale, rerun_noisy=True))
    breaches = compare(sets[0], sets[-1])
    suspects = {breach.split()[0] for breach in breaches if "worse by" in breach}
    if suspects:
        for name in WORKLOADS:
            if name in suspects:
                recheck(sets[-1], name, args.seed, scale)
        breaches = compare(sets[0], sets[-1])
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "sets": sets}, handle, indent=1)
    for breach in breaches:
        print(f"BREACH: {breach}")
    print(f"{len(breaches)} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
