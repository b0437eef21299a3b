"""The per-database observability hub and its JSON snapshot.

One :class:`Observability` belongs to each :class:`~repro.db.GemStone`
(instance-scoped by default — nothing here is process-global).  It owns

* the :class:`~repro.obs.registry.MetricsRegistry` every layer reports
  native counters to (request totals, SafeTime clamps, span timings);
* the :class:`~repro.obs.tracing.Tracer` (request IDs + span ring);
* the :class:`~repro.obs.slowlog.SlowQueryLog`;
* the roster of things worth aggregating at snapshot time: admission
  controllers attached by Executors, and live/retired sessions whose
  budget, quota and cache counters fold into database-wide totals.

``snapshot(database)`` assembles the one JSON document
``GemStone.observability()`` publishes; its shape is pinned by
``docs/observability_schema.json`` and validated in CI.
"""

from __future__ import annotations

import weakref
from typing import Any, Optional

from .registry import MetricsRegistry
from .slowlog import SlowQueryLog
from .tracing import Tracer

#: cache sections aggregated across sessions (same names StoreCaches uses)
_SESSION_CACHE_KEYS = (
    "method_hits", "method_misses", "inline_hits", "inline_misses",
    "translation_hits", "translation_misses", "plan_hits", "plan_misses",
    "compile_hits", "compile_misses",
)


class Observability:
    """Metrics + tracing + slow queries for one database instance."""

    def __init__(
        self,
        tracing: bool = False,
        max_spans: int = 256,
        slow_query_capacity: int = 32,
        slow_query_threshold_ms: float = 0.0,
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(self.registry, enabled=tracing, max_spans=max_spans)
        self.slow_queries = SlowQueryLog(
            capacity=slow_query_capacity,
            threshold_ms=slow_query_threshold_ms,
        )
        self._admissions: list[Any] = []
        self._frontdoors: list[Any] = []
        self._live_sessions: "weakref.WeakSet[Any]" = weakref.WeakSet()
        self._retired_caches = dict.fromkeys(_SESSION_CACHE_KEYS, 0)
        self._retired_budget = {"queries": 0, "kills": 0}
        self._retired_quota = {"rejections": 0}
        self._retired_clamps = 0
        self.sessions_opened = 0
        self.sessions_closed = 0

    # -- switches -----------------------------------------------------------

    def enable_tracing(self, enabled: bool = True) -> None:
        """Turn span recording on (or off) at run time."""
        self.tracer.enabled = enabled

    # -- registration -------------------------------------------------------

    def register_admission(self, controller: Any) -> None:
        """An Executor attaches its admission controller for reporting."""
        if controller is not None and controller not in self._admissions:
            self._admissions.append(controller)

    def register_frontdoor(self, frontdoor: Any) -> None:
        """An async front door attaches itself for snapshot reporting."""
        if frontdoor is not None and frontdoor not in self._frontdoors:
            self._frontdoors.append(frontdoor)

    def frontdoor_report(self) -> dict[str, Any]:
        """Every registered front door's counters, summed, plus latency.

        The latency distribution comes from the shared
        ``frontdoor.latency_ms`` histogram (bucketed, so the p50/p90/p99
        quantiles survive aggregation).
        """
        totals = {
            "doors": len(self._frontdoors),
            "links_served": 0,
            "active_links": 0,
            "requests": 0,
            "queued": 0,
            "replays": 0,
            "suppressed_duplicates": 0,
            "shed_overload": 0,
            "shed_deadline": 0,
            "corrupt_frames": 0,
            "protocol_errors": 0,
            "max_queue_depth": 0,
        }
        for door in self._frontdoors:
            report = door.report()
            for key in totals:
                if key in ("doors", "max_queue_depth"):
                    continue
                totals[key] += report.get(key, 0)
            totals["max_queue_depth"] = max(
                totals["max_queue_depth"], report.get("max_queue_depth", 0)
            )
        totals["latency_ms"] = self.registry.histogram(
            "frontdoor.latency_ms"
        ).summary()
        return totals

    def net_report(self) -> dict[str, Any]:
        """Transport-level traffic: frames, bytes, connections, RTT.

        Every socket link end (sync ``TcpLinkEnd`` or asyncio
        ``StreamLink``) created with this registry feeds the ``net.*``
        counters and the ``net.rtt_ms`` histogram; the section reports
        them as one rollup for the whole process.
        """
        counters = self.registry.snapshot()["counters"]
        return {
            "connections": counters.get("net.connections", 0),
            "reconnects": counters.get("net.reconnects", 0),
            "frames_sent": counters.get("net.frames_sent", 0),
            "frames_received": counters.get("net.frames_received", 0),
            "bytes_sent": counters.get("net.bytes_sent", 0),
            "bytes_received": counters.get("net.bytes_received", 0),
            "rtt_ms": self.registry.histogram("net.rtt_ms").summary(),
        }

    def register_session(self, session: Any) -> None:
        """Track a live session (weakly: a leaked session cannot pin us)."""
        self._live_sessions.add(session)
        self.sessions_opened += 1

    def retire_session(self, session: Any) -> None:
        """Fold a closing session's counters into the lifetime totals."""
        if session not in self._live_sessions:
            return
        self._live_sessions.discard(session)
        self.sessions_closed += 1
        self._fold(session)

    def _fold(self, session: Any) -> None:
        perf = getattr(getattr(session, "session", None), "perf", None)
        if perf is not None:
            for key in _SESSION_CACHE_KEYS:
                self._retired_caches[key] += getattr(perf, key, 0)
        dial = getattr(getattr(session, "session", None), "time_dial", None)
        if dial is not None:
            self._retired_clamps += getattr(dial, "clamps", 0)
        budget = getattr(session, "budget", None)
        if budget is not None:
            self._retired_budget["queries"] += budget.queries
            self._retired_budget["kills"] += budget.kills
        quota = getattr(session, "quota", None)
        if quota is not None:
            self._retired_quota["rejections"] += quota.rejections

    # -- aggregation --------------------------------------------------------

    @staticmethod
    def _rate(hits: int, misses: int) -> float:
        total = hits + misses
        return hits / total if total else 0.0

    def session_cache_totals(self) -> dict[str, Any]:
        """Per-session StoreCaches counters summed: live + retired."""
        totals = dict(self._retired_caches)
        compiled_blocks = 0  # held by live sessions; a closed one holds none
        for session in list(self._live_sessions):
            perf = getattr(getattr(session, "session", None), "perf", None)
            if perf is None:
                continue
            for key in _SESSION_CACHE_KEYS:
                totals[key] += getattr(perf, key, 0)
            compiled_blocks += len(getattr(perf, "compile_entries", ()))
        report: dict[str, Any] = {}
        for cache in ("method", "inline", "translation", "plan", "compile"):
            hits = totals[f"{cache}_hits"]
            misses = totals[f"{cache}_misses"]
            report[f"{cache}_cache"] = {
                "hits": hits,
                "misses": misses,
                "hit_rate": self._rate(hits, misses),
            }
        report["compile_cache"]["entries"] = compiled_blocks
        return report

    def governance_report(self) -> dict[str, Any]:
        """Admission, budget, quota and SafeTime-clamp totals."""
        admission = {
            "controllers": len(self._admissions),
            "admitted": 0,
            "shed_requests": 0,
            "shed_sessions": 0,
            "breaker_sheds": 0,
            "breaker_trips": 0,
            "active_sessions": 0,
        }
        breaker_states: list[str] = []
        for controller in self._admissions:
            admission["admitted"] += controller.admitted
            admission["shed_requests"] += controller.shed_requests
            admission["shed_sessions"] += controller.shed_sessions
            admission["breaker_sheds"] += controller.breaker_sheds
            admission["breaker_trips"] += controller.breaker.trips
            admission["active_sessions"] += controller.sessions
            breaker_states.append(controller.breaker.state)
        admission["breaker_states"] = breaker_states
        budgets = dict(self._retired_budget)
        quotas = dict(self._retired_quota)
        clamps = self._retired_clamps
        for session in list(self._live_sessions):
            budget = getattr(session, "budget", None)
            if budget is not None:
                budgets["queries"] += budget.queries
                budgets["kills"] += budget.kills
            quota = getattr(session, "quota", None)
            if quota is not None:
                quotas["rejections"] += quota.rejections
            dial = getattr(getattr(session, "session", None), "time_dial", None)
            if dial is not None:
                clamps += getattr(dial, "clamps", 0)
        return {
            "admission": admission,
            "budgets": budgets,
            "quotas": quotas,
            "safetime_clamps": clamps,
            "sessions": {
                "opened": self.sessions_opened,
                "closed": self.sessions_closed,
                "live": len(self._live_sessions),
            },
        }

    # -- the snapshot -------------------------------------------------------

    def snapshot(
        self,
        database: Optional[Any] = None,
        slow: int = 10,
        spans: int = 20,
    ) -> dict[str, Any]:
        """The full JSON observability document.

        Every section is always present (possibly with zeroed counters),
        so consumers can rely on the shape; see
        ``docs/observability.md`` for the metric-name catalogue.
        """
        from ..perf import stats

        caches: dict[str, Any] = stats(database) if database is not None else {}
        storage = caches.pop("storage", {})
        storage.pop("transactions", None)  # rebuilt below in JSON-ready form
        if database is not None and hasattr(database, "replication_report"):
            # lag / last-shipped-epoch gauges plus replica-log counters
            storage["replication"] = database.replication_report()
        transactions: dict[str, Any] = {}
        if database is not None:
            tx_stats = database.transaction_manager.stats
            transactions = {
                "commits": tx_stats.commits,
                "aborts": tx_stats.aborts,
                "read_only_commits": tx_stats.read_only_commits,
                "validations": tx_stats.validations,
                "storage_failures": tx_stats.storage_failures,
                "conflict_retries": tx_stats.conflict_retries,
                "backoff_units": tx_stats.backoff_units,
                "storms_detected": tx_stats.storms_detected,
                "priority_grants": tx_stats.priority_grants,
                "priority_rejections": tx_stats.priority_rejections,
                "abort_rate": tx_stats.abort_rate,
                "active_transactions": database.transaction_manager.active_count(),
            }
        caches["sessions"] = self.session_cache_totals()
        slowest = self.slow_queries.slowest(slow)
        extra: dict[str, Any] = {}
        if self._frontdoors:
            extra["frontdoor"] = self.frontdoor_report()
        if any(
            name.startswith("net.")
            for name in self.registry.snapshot()["counters"]
        ):
            # only once a socket link end has actually moved traffic —
            # in-memory deployments keep the all-memory snapshot shape
            extra["net"] = self.net_report()
        return {
            **extra,
            "transactions": transactions,
            "caches": caches,
            "storage": storage,
            "governance": self.governance_report(),
            "counters": self.registry.snapshot(),
            "slow_queries": {
                "total_queries": self.slow_queries.total_queries,
                "kept": len(self.slow_queries),
                "threshold_ms": self.slow_queries.threshold_ms,
                "slowest": slowest,
            },
            "tracing": {
                "enabled": self.tracer.enabled,
                "recorded": self.tracer.recorded,
                "recent_spans": self.tracer.recent(spans),
            },
        }
