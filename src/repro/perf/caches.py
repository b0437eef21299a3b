"""Per-store cache state: method lookups and query-plan memoization.

Every :class:`~repro.core.object_manager.ObjectStore` owns one
:class:`StoreCaches` (created in ``ObjectStore.__init__``).  It holds

* the **method-lookup cache** — ``(side, class key, selector) → method``,
  consulted by ``ObjectStore.lookup_method`` and validated against
  :data:`~repro.perf.epochs.class_epoch`: the first lookup after a bump
  clears the table, so a stale method can never be served;
* the **plan-cache counters** — the select-block translation and plan
  memos themselves live on each compiled block (the AST identity *is*
  the cache key), but their hit/miss accounting is centralized here so
  :func:`repro.perf.stats` can report them per store;
* the **inline-cache counters** — per-call-site caches live in the
  compiled code, the engine reports hits/misses here;
* the **compiled-block cache** — ``(shape of the text, binding names)
  → CompiledMethod`` for the blocks a host sends to ``execute``, in LRU
  order; the shape is the text's tokens with its literals lifted out
  (:mod:`repro.opal.lexer`), so one entry serves every literal.
  :class:`~repro.opal.interpreter.OpalEngine` fills and bounds it; it
  lives here because everything a compiled block carries (inline
  caches, translation and plan memos) is keyed on this store's token
  and the class epoch, so an entry must never outlive or leave its
  store.

``enabled`` turns the method cache, the memos and the compiled-block
cache off wholesale; the benchmarks use it for cached-vs-uncached
ablations.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

from .epochs import class_epoch, next_store_token

#: distinguishes "no cache entry" from a cached does-not-understand (None)
_ABSENT = object()


class StoreCaches:
    """All hot-path cache state owned by one object store."""

    __slots__ = (
        "store_token",
        "enabled",
        "method_epoch",
        "method_entries",
        "method_hits",
        "method_misses",
        "method_invalidations",
        "inline_hits",
        "inline_misses",
        "translation_hits",
        "translation_misses",
        "plan_hits",
        "plan_misses",
        "compile_entries",
        "compile_skeletons",
        "compile_hits",
        "compile_misses",
    )

    def __init__(self) -> None:
        self.store_token = next_store_token()
        self.enabled = True
        self.method_epoch = class_epoch.value
        self.method_entries: dict[Any, Any] = {}
        self.method_hits = 0
        self.method_misses = 0
        self.method_invalidations = 0
        self.inline_hits = 0
        self.inline_misses = 0
        self.translation_hits = 0
        self.translation_misses = 0
        self.plan_hits = 0
        self.plan_misses = 0
        self.compile_entries: OrderedDict[Any, Any] = OrderedDict()
        #: skeleton -> (the key above, how to read its literals) or None
        self.compile_skeletons: OrderedDict[Any, Any] = OrderedDict()
        self.compile_hits = 0
        self.compile_misses = 0

    # -- method-lookup cache ---------------------------------------------------

    def method_get(self, key: Any) -> Any:
        """The cached method for *key*, ``None`` for a cached DNU, or
        :data:`_ABSENT` when nothing (valid) is cached."""
        epoch = class_epoch.value
        if self.method_epoch != epoch:
            # the hierarchy changed since these entries were filled:
            # drop them all rather than risk one stale resolution
            self.method_entries.clear()
            self.method_epoch = epoch
            self.method_invalidations += 1
        entry = self.method_entries.get(key, _ABSENT)
        if entry is _ABSENT:
            self.method_misses += 1
        else:
            self.method_hits += 1
        return entry

    def method_put(self, key: Any, method: Any) -> None:
        """Record a resolution (``None`` caches a does-not-understand)."""
        self.method_entries[key] = method

    def reset_stats(self) -> None:
        """Zero every counter (benchmark ablations)."""
        self.method_hits = self.method_misses = 0
        self.method_invalidations = 0
        self.inline_hits = self.inline_misses = 0
        self.translation_hits = self.translation_misses = 0
        self.plan_hits = self.plan_misses = 0
        self.compile_hits = self.compile_misses = 0

    # -- reporting -------------------------------------------------------------

    @staticmethod
    def _rate(hits: int, misses: int) -> float:
        total = hits + misses
        return hits / total if total else 0.0

    def report(self) -> dict[str, Any]:
        """Counters in the shape :func:`repro.perf.stats` publishes."""
        return {
            "method_cache": {
                "enabled": self.enabled,
                "entries": len(self.method_entries),
                "hits": self.method_hits,
                "misses": self.method_misses,
                "invalidations": self.method_invalidations,
                "hit_rate": self._rate(self.method_hits, self.method_misses),
            },
            "inline_cache": {
                "hits": self.inline_hits,
                "misses": self.inline_misses,
                "hit_rate": self._rate(self.inline_hits, self.inline_misses),
            },
            "translation_cache": {
                "hits": self.translation_hits,
                "misses": self.translation_misses,
                "hit_rate": self._rate(
                    self.translation_hits, self.translation_misses
                ),
            },
            "plan_cache": {
                "hits": self.plan_hits,
                "misses": self.plan_misses,
                "hit_rate": self._rate(self.plan_hits, self.plan_misses),
            },
            "compile_cache": {
                "entries": len(self.compile_entries),
                "hits": self.compile_hits,
                "misses": self.compile_misses,
                "hit_rate": self._rate(self.compile_hits, self.compile_misses),
            },
        }


def store_caches(store: Any) -> Optional[StoreCaches]:
    """The :class:`StoreCaches` of *store*, or None for exotic stores."""
    return getattr(store, "perf", None)
