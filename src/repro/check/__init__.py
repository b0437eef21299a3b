"""``repro.check`` — model-based correctness oracles for the database.

The paper's central semantic claims are equivalences: a declarative
select block compiled through calculus→algebra translation (§3, §5.1)
must return the same set as naive evaluation, and a temporal read
``X!a@T`` must equal what the association tables recorded at commit
time (§5.3, §5.4).  This package *checks* those equivalences under
generated workloads instead of assuming them:

* :mod:`~repro.check.generate` — a seeded generator for random STDM
  instances (labeled sets, aliases, nested values, mutation histories)
  and random calculus queries including ∃/∀ brackets;
* :mod:`~repro.check.reference` — a deliberately-naive evaluator over a
  pure-Python shadow model, sharing no code with the query engine;
* :mod:`~repro.check.differential` — runs every generated query four
  ways (reference, uncached plan, memoized plan, optimized plan) and
  demands identical results;
* :mod:`~repro.check.shrink` — greedy delta debugging: a failing case
  is reduced to a minimal reproducer before it is reported;
* :mod:`~repro.check.temporal` — replays random transaction histories
  against a brute-force shadow and cross-checks ``@T`` reads, TimeDial
  pins, and SafeTime clamps;
* :mod:`~repro.check.schedule` — a deterministic (single-threaded)
  interleaving explorer for OCC commits: committed histories must be
  serializable and aborted sessions must leave no partial state;
* :mod:`~repro.check.lifting` — every generated select three ways
  (compiled as written, lifted cold, lifted warm after the same shape
  with other literals): same members, same plan text, same logged
  source.

Every oracle is a pure function of its seed — the same conventions as
:mod:`repro.faults.plan` — so any failure is reproducible with
``python -m repro.check --seed N --case K``.  See ``docs/testing.md``.
"""

from .differential import (
    CheckFailure,
    DifferentialReport,
    Mismatch,
    PlanMemo,
    run_differential_case,
    run_differential_range,
)
from .generate import generate_case
from .lifting import LiftingReport, run_lifting_case, run_lifting_range
from .reference import ShadowStore, evaluate_reference
from .report import reproducer_command
from .schedule import ScheduleReport, run_schedule_case, run_schedule_range
from .sharded import (
    StackDifferentialReport,
    StackMismatch,
    generate_shard_workload,
    run_stack_case,
    run_stack_range,
)
from .shrink import shrink_case
from .soak import run_soak
from .spec import CaseSpec, CollectionSpec, QuerySpec, case_key
from .temporal import TemporalReport, run_temporal_case, run_temporal_range

__all__ = [
    "CaseSpec",
    "CheckFailure",
    "CollectionSpec",
    "DifferentialReport",
    "LiftingReport",
    "Mismatch",
    "PlanMemo",
    "QuerySpec",
    "ScheduleReport",
    "ShadowStore",
    "StackDifferentialReport",
    "StackMismatch",
    "TemporalReport",
    "case_key",
    "evaluate_reference",
    "generate_case",
    "generate_shard_workload",
    "reproducer_command",
    "run_differential_case",
    "run_differential_range",
    "run_lifting_case",
    "run_lifting_range",
    "run_schedule_case",
    "run_schedule_range",
    "run_soak",
    "run_stack_case",
    "run_stack_range",
    "run_temporal_case",
    "run_temporal_range",
    "shrink_case",
]
