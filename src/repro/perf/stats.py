"""The unified performance report: every cache's health in one dict.

``stats(target)`` accepts any level of the stack — a
:class:`~repro.db.GemStone` database, a :class:`~repro.db.GemSession`, an
:class:`~repro.opal.interpreter.OpalEngine`, or a bare object store —
and folds together:

* the store's :class:`~repro.perf.caches.StoreCaches` counters (method
  lookups, inline caches, select-block translation and plan memos);
* the global :func:`~repro.core.paths.parse_path` memo;
* the query planner's work counter (plans actually built — a flat line
  under a repeated workload is the memoization demonstrably working);
* for a full database: the stable store's
  :class:`~repro.storage.cache.ObjectCache` (hits/misses/evictions) and
  the disk-stack ``storage_report``.

``GemStone.observability()`` embeds this report as its ``caches``
section, and the benchmarks print its hit rates beside their timings,
so a number that moved comes with *why* it moved.
"""

from __future__ import annotations

from typing import Any, Optional

from .caches import StoreCaches
from .epochs import class_epoch


def _find_store(target: Any) -> Optional[Any]:
    """The object store behind any supported *target*."""
    if target is None:
        return None
    if hasattr(target, "perf"):  # a bare ObjectStore (or session)
        return target
    session = getattr(target, "session", None)  # GemSession
    if session is not None and hasattr(session, "perf"):
        return session
    store = getattr(target, "store", None)  # OpalEngine / GemStone
    if store is not None and hasattr(store, "perf"):
        return store
    return None


def _find_database(target: Any) -> Optional[Any]:
    """The GemStone database behind *target*, when there is one."""
    if hasattr(target, "storage_report") and hasattr(target, "store"):
        return target  # a GemStone
    return getattr(target, "database", None)  # a GemSession


def object_cache_report(cache: Any) -> dict[str, Any]:
    """Hit/miss/eviction counters of a storage ObjectCache."""
    return {
        "entries": len(cache),
        "capacity": cache.capacity,
        "hits": cache.hits,
        "misses": cache.misses,
        "evictions": cache.evictions,
        "hit_rate": cache.hit_rate,
    }


def stats(target: Any = None) -> dict[str, Any]:
    """One report covering every cache *target* can reach."""
    from ..core.paths import parse_cache_stats
    from ..stdm.optimize import planning_stats

    report: dict[str, Any] = {
        "class_epoch": class_epoch.value,
        "parse_path_cache": parse_cache_stats(),
        "planner": dict(planning_stats),
    }
    store = _find_store(target)
    if store is not None:
        caches: StoreCaches = store.perf
        report.update(caches.report())
        engine = getattr(store, "opal_runtime", None)
        if engine is not None and engine.directory_manager is not None:
            report["directory_epoch"] = engine.directory_manager.epoch
    database = _find_database(target)
    if database is not None:
        report["object_cache"] = object_cache_report(database.store.cache)
        report["storage"] = database.storage_report()
        report.setdefault(
            "directory_epoch", database.directory_manager.epoch
        )
    else:
        base = getattr(store, "store", None) if store is not None else None
        cache = getattr(base, "cache", None)
        if cache is not None and hasattr(cache, "evictions"):
            report["object_cache"] = object_cache_report(cache)
    return report


def reset_stats(target: Any = None) -> None:
    """Zero every counter :func:`stats` folds together for *target*.

    The process-global counters (the ``parse_path`` memo, the planner's
    ``plans_built``) made hit rates order-dependent across independent
    :class:`~repro.db.GemStone` instances and across tests; each fresh
    database resets them at construction so its report starts from zero.
    With a *target*, the target's own :class:`StoreCaches` counters and
    (for a full database) its ObjectCache counters are zeroed too.
    """
    from ..core.paths import reset_parse_cache_stats
    from ..stdm.optimize import reset_planning_stats

    reset_parse_cache_stats()
    reset_planning_stats()
    store = _find_store(target)
    if store is not None:
        store.perf.reset_stats()
    database = _find_database(target)
    if database is not None:
        database.store.cache.reset_stats()
