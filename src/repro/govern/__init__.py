"""``repro.govern`` — resource governance and overload protection.

Every layer defends itself under load, with typed, retryable errors:

* :mod:`~repro.govern.budget` — per-query fuel (steps, send depth,
  allocations) threaded through the OPAL interpreter;
* :mod:`~repro.govern.quota` — per-session workspace caps;
* :mod:`~repro.govern.backoff` — commit contention policy: jittered
  exponential backoff, abort-storm detection, starvation aging;
* :mod:`~repro.govern.admission` — executor admission control: session
  gate, bounded virtual queue with load shedding, circuit breaker.

The ``overload`` kind of :mod:`repro.check` proves that a herd of
contending and adversarial sessions cannot wedge the system.

Everything is deterministic: backoff, retry-after and breaker resets are
charged to the same :class:`~repro.faults.plan.FaultClock` the fault
subsystem uses, so overload runs replay byte-for-byte from a seed.
"""

from .admission import AdmissionController, CircuitBreaker
from .backoff import CommitPolicy
from .budget import BudgetSpec, QueryBudget
from .quota import QuotaSpec, SessionQuota

__all__ = [
    "AdmissionController",
    "BudgetSpec",
    "CircuitBreaker",
    "CommitPolicy",
    "QueryBudget",
    "QuotaSpec",
    "SessionQuota",
]

