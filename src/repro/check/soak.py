"""One-call soak: every oracle over a seed range, with a digest.

``run_soak`` is the engine behind ``benchmarks/bench_check_soak.py`` and
the CI ``check-soak`` job: it runs the differential, temporal, schedule,
sharded and lifting oracles over a seed range against fresh stores,
raises :class:`~repro.check.differential.CheckFailure` on any
divergence, and returns a metrics dict whose ``digest`` field is
identical across runs of the same seed — the determinism contract
inherited from :mod:`repro.faults.plan`.
"""

from __future__ import annotations

from hashlib import sha256
from typing import Any

from .differential import CheckFailure, run_differential_range
from .lifting import run_lifting_range
from .schedule import run_schedule_range
from .sharded import run_stack_range
from .temporal import run_temporal_range


#: ``World!padNN`` bindings the oracles' database starts with
_PAD_KEYS = 64


def oracle_database():
    """A fresh database for the temporal and schedule oracles.

    512-byte tracks and a padded ``World``: its record spans tracks from
    the first case on, so the oracles' one- and two-binding commits are
    appended to its last fragment (and now and then spill a new one),
    while the small objects they create beside it are written whole.
    """
    from ..db import GemStone

    database = GemStone.create(track_count=2048, track_size=512)
    with database.login() as loader:
        for index in range(_PAD_KEYS):
            loader.assign(f"pad{index:02d}", index)
        loader.commit()
    return database


def run_soak(
    seed: int,
    *,
    diff_cases: int = 40,
    queries_per_case: int = 3,
    temporal_cases: int = 10,
    schedule_cases: int = 6,
    sharded_cases: int = 3,
    lifting_cases: int = 4,
    registry=None,
    raise_on_failure: bool = True,
) -> dict[str, Any]:
    """Run every oracle; return aggregate metrics (or raise on failure)."""
    diff = run_differential_range(
        seed, diff_cases, queries_per_case=queries_per_case, registry=registry
    )

    database = oracle_database()
    temporal = run_temporal_range(
        database, seed, temporal_cases, registry=registry
    )
    schedule = run_schedule_range(
        database, seed, schedule_cases, registry=registry
    )
    sharded = run_stack_range(seed, sharded_cases, registry=registry)
    lifting = run_lifting_range(seed, lifting_cases, registry=registry)

    problems: list[str] = []
    problems.extend(m.describe() for m in diff.mismatches)
    problems.extend(temporal.problems)
    problems.extend(schedule.problems)
    problems.extend(m.describe() for m in sharded.mismatches)
    problems.extend(lifting.problems)

    metrics = {
        "seed": seed,
        "diff_cases": diff.cases,
        "diff_queries": diff.queries,
        "diff_evaluations": diff.evaluations,
        "diff_memo_hits": diff.memo_hits,
        "diff_memo_misses": diff.memo_misses,
        "temporal_histories": temporal.histories,
        "temporal_commits": temporal.commits,
        "temporal_reads": temporal.reads,
        "temporal_clamps": temporal.clamps,
        "schedule_samples": schedule.samples,
        "schedule_steps": schedule.steps,
        "schedule_commits": schedule.commits,
        "schedule_aborts": schedule.aborts,
        "sharded_statements": sharded.statements,
        "sharded_commits": sharded.commits,
        "sharded_cross_shard_commits": sharded.cross_shard_commits,
        "problems": len(problems),
    }
    metrics["digest"] = sha256(
        (repr(sorted(metrics.items())) + schedule.digest).encode()
    ).hexdigest()
    # after the digest: it is compared across commits, and must not move
    # because an oracle was added (a lifting failure still moves it,
    # through ``problems``)
    metrics["lifting_selects"] = lifting.selects
    metrics["lifting_warm_hits"] = lifting.warm_hits

    if problems and raise_on_failure:
        raise CheckFailure(
            f"{len(problems)} oracle failure(s) at seed {seed}:\n"
            + "\n\n".join(problems)
        )
    metrics["problem_details"] = problems
    return metrics
