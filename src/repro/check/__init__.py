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

Each oracle is a *kind* of one harness (:mod:`~repro.check.harness`),
and so is each kill sweep of a recovery claim (``crash``, ``dr``,
``shard``) and the claim under load (``overload``,
:mod:`~repro.check.overload`): one case loop, :func:`check`, one
:class:`Failure` record and one CLI.  Every case is a pure function of
its kind's options — the same conventions as :mod:`repro.faults.plan` —
so any failure is reproducible with ``python -m repro.check KIND
[OPTIONS] --case K``, and ``tests/check/pinned.json`` holds what the
runs CI makes observe.  See ``docs/testing.md``.
"""

from .differential import PlanMemo
from .generate import generate_case
from .harness import (
    KINDS,
    Failure,
    Report,
    UsageError,
    check,
    reproducer,
)
from .reference import ShadowStore, evaluate_reference
from .sharded import generate_shard_workload
from .shrink import shrink_case
from .spec import CaseSpec, CollectionSpec, QuerySpec, case_key, describe_case
from .temporal import oracle_database

__all__ = [
    "KINDS",
    "CaseSpec",
    "CollectionSpec",
    "Failure",
    "PlanMemo",
    "QuerySpec",
    "Report",
    "ShadowStore",
    "UsageError",
    "case_key",
    "check",
    "describe_case",
    "evaluate_reference",
    "generate_case",
    "generate_shard_workload",
    "oracle_database",
    "reproducer",
    "shrink_case",
]
