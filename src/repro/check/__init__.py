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
* :mod:`~repro.check.sharded` — one seeded OPAL workload down the
  monolithic store and the sharded cluster (in-process, and ``cluster``:
  worker processes too), observation for observation;
* :mod:`~repro.check.lifting` — every generated select three ways
  (compiled as written, lifted cold, lifted warm after the same shape
  with other literals): same members, same plan text, same logged
  source.

Each oracle is a *kind* of one harness (:mod:`~repro.check.harness`):
one seeded case loop, :func:`check`, one :class:`Failure` record, one
CLI, and :func:`run_soak`, a loop over the kinds.  Every case is a pure
function of its seed — the same conventions as :mod:`repro.faults.plan`
— so any failure is reproducible with ``python -m repro.check --seed N
--case K [--oracle O]``.  See ``docs/testing.md``.
"""

from .differential import PlanMemo
from .generate import generate_case
from .harness import (
    KINDS,
    CheckFailure,
    Failure,
    Report,
    check,
    oracle_database,
    reproducer,
    run_soak,
)
from .reference import ShadowStore, evaluate_reference
from .sharded import generate_shard_workload
from .shrink import shrink_case
from .spec import CaseSpec, CollectionSpec, QuerySpec, case_key, describe_case

__all__ = [
    "KINDS",
    "CaseSpec",
    "CheckFailure",
    "CollectionSpec",
    "Failure",
    "PlanMemo",
    "QuerySpec",
    "Report",
    "ShadowStore",
    "case_key",
    "check",
    "describe_case",
    "evaluate_reference",
    "generate_case",
    "generate_shard_workload",
    "oracle_database",
    "reproducer",
    "run_soak",
    "shrink_case",
]
