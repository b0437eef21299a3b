"""Check soak: every oracle in ``repro.check`` over a pinned seed range.

One call to :func:`repro.check.run_soak` per seed runs the differential
oracle (reference vs uncached vs memoized vs optimized plans), the
temporal oracle (random histories vs a brute-force shadow), and the OCC
schedule explorer (sampled interleavings replayed serially).  The smoke
configuration alone pushes 1000+ generated queries through all four
evaluation paths; any divergence aborts the run with a
copy-pasteable ``python -m repro.check`` reproducer.

Each seed's soak is then re-run from scratch and must produce an
identical digest — the whole harness is a pure function of its seed.

Run the harness:   python benchmarks/bench_check_soak.py
CI smoke subset:   python benchmarks/bench_check_soak.py --smoke
Extended range:    python benchmarks/bench_check_soak.py --seeds 8
Reseed the soak:   python benchmarks/bench_check_soak.py --seed 7
Run as tests:      pytest benchmarks/bench_check_soak.py
"""

import argparse

from repro.bench import Table
from repro.check import run_soak

#: the full soak widens every oracle and sweeps more seeds by default
FULL = dict(diff_cases=400, queries_per_case=3, temporal_cases=30,
            schedule_cases=12)
#: smoke still clears the 1000-query floor: 350 cases x 3 queries
SMOKE = dict(diff_cases=350, queries_per_case=3, temporal_cases=10,
             schedule_cases=6)


def soak_once(seed, params):
    return run_soak(seed, **params)


def test_smoke_soak_is_clean():
    metrics = soak_once(2026, SMOKE)
    assert metrics["problems"] == 0
    assert metrics["diff_queries"] >= 1000


def test_smoke_soak_is_deterministic():
    params = dict(SMOKE, diff_cases=30, temporal_cases=4, schedule_cases=3)
    assert soak_once(2026, params)["digest"] == soak_once(2026, params)["digest"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small, fast configuration")
    parser.add_argument("--seed", type=int, default=2026,
                        help="first seed of the soak range")
    parser.add_argument("--seeds", type=int, default=None,
                        help="how many consecutive seeds to soak "
                             "(default: 1 smoke, 3 full)")
    args = parser.parse_args(argv)
    params = dict(SMOKE if args.smoke else FULL)
    n_seeds = args.seeds if args.seeds is not None else (1 if args.smoke else 3)

    table = Table(
        f"check soak: {n_seeds} seed(s) x "
        f"{params['diff_cases']}x{params['queries_per_case']} queries, "
        f"{params['temporal_cases']} histories, "
        f"{params['schedule_cases']} schedules",
        ["seed", "queries", "evaluations", "memo hits", "reads", "clamps",
         "commits", "aborts", "digest"],
    )
    totals = dict(queries=0, evaluations=0, reads=0, commits=0, problems=0)
    for seed in range(args.seed, args.seed + n_seeds):
        metrics = soak_once(seed, params)
        rerun = soak_once(seed, params)
        assert metrics["digest"] == rerun["digest"], (
            f"seed {seed}: soak digest changed between identical runs"
        )
        table.add(
            seed, metrics["diff_queries"], metrics["diff_evaluations"],
            metrics["diff_memo_hits"], metrics["temporal_reads"],
            metrics["temporal_clamps"],
            metrics["temporal_commits"] + metrics["schedule_commits"],
            metrics["schedule_aborts"], metrics["digest"][:12],
        )
        totals["queries"] += metrics["diff_queries"]
        totals["evaluations"] += metrics["diff_evaluations"]
        totals["reads"] += metrics["temporal_reads"]
        totals["commits"] += metrics["temporal_commits"]
        totals["problems"] += metrics["problems"]
    table.note("four evaluation paths per query (reference, uncached, "
               "memoized, optimized) must agree exactly; every "
               "seed is re-soaked and must reproduce its digest")
    table.show()

    assert totals["problems"] == 0
    assert totals["queries"] >= 1000, "soak below the 1000-query floor"
    return dict(totals, seeds=n_seeds)


if __name__ == "__main__":
    main()
