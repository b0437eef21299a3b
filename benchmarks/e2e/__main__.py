"""The whole benchmark: every workload, untraced then traced.

    PYTHONPATH=src python -m benchmarks.e2e --seed 2026
    PYTHONPATH=src python -m benchmarks.e2e --quick        # 1 % of the ops

Each (workload, mode) is one ``run.py`` process — exactly what the
driver of ``BENCHMARK.json`` starts — so a traced run's wrappers never
leak into an untraced one.  Prints every metric by name with its unit,
direction and regression bound; ``--json`` also writes them to a file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from . import ROOT
from .catalogue import END_TO_END, PER_LAYER, WORKLOADS

#: ``run_seconds`` of ``BENCHMARK.json``
RUN_SECONDS = 18
QUICK_SCALE = 0.01


def run_one(workload: str, seed: int, trace: int, scale: float = 1.0,
            seconds: float = RUN_SECONDS) -> dict:
    """One ``run.py`` process; returns {"manifest": ..., "result": ...}."""
    command = [
        sys.executable, os.path.join(ROOT, "benchmarks", "e2e", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--scale", str(scale),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} (trace {trace}) exited {done.returncode}:\n{done.stderr[-4000:]}"
        )
    lines = done.stdout.strip().splitlines()
    return {"manifest": json.loads(lines[-2])["manifest"],
            "result": json.loads(lines[-1])}


def run_all(seed: int, scale: float = 1.0, workloads=None,
            rerun_noisy: bool = False, log=print) -> dict:
    """{workload: {"untraced": run, "traced": run}} for every workload.

    With *rerun_noisy*, a run whose noise sentinel moved is made again
    once and the second one kept.
    """
    out = {}
    for name in workloads or WORKLOADS:
        out[name] = {}
        for mode, trace in (("untraced", 0), ("traced", 1)):
            run = run_one(name, seed, trace, scale)
            if rerun_noisy and run["manifest"]["noisy"]:
                log(f"# {name} {mode}: noise sentinel moved "
                    f"{run['manifest']['spin_ms']}, running it again")
                run = run_one(name, seed, trace, scale)
            manifest, result = run["manifest"], run["result"]
            log(f"# {name} {mode}: {result['attempted']} ops attempted, "
                f"{result['failed']} failed, measured {manifest['measured_s']} s"
                f"{', NOISY host' if manifest['noisy'] else ''}")
            out[name][mode] = run
    return out


def show(results: dict, log=print) -> None:
    """One table per workload: end-to-end, then the per-layer breakdown."""
    for name, runs in results.items():
        log(f"\n== {name}: {WORKLOADS[name]}")
        for mode, catalogue in (("untraced", END_TO_END), ("traced", PER_LAYER)):
            metrics = runs[mode]["result"]["metrics"]
            for metric in catalogue:
                bound = "" if metric.bound is None else f"  bound {metric.bound:.2f}"
                log(f"{metric.name:36s} {metrics[metric.name]['value']:14.4f} "
                    f"{metric.unit:6s} {metric.better:6s}{bound}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--quick", action="store_true",
                        help="1 %% of the ops: a smoke run, not a measurement")
    parser.add_argument("--workload", action="append",
                        help="only this workload (repeatable)")
    parser.add_argument("--json", help="also write the results to this file")
    args = parser.parse_args(argv)
    results = run_all(args.seed, QUICK_SCALE if args.quick else 1.0, args.workload)
    show(results)
    failed = sum(run["result"]["failed"]
                 for runs in results.values() for run in runs.values())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "quick": args.quick, "results": results},
                      handle, indent=1)
    if failed:
        print(f"\n{failed} ops failed: a benchmark bug to fix, not a number to keep")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
