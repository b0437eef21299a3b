"""``repro.perf`` — hot-path caching for the OPAL execution pipeline.

Section 6 of the paper chose a declarative query language precisely for
"the latitude in processing queries to exploit fully secondary storage
layout, directories, and special hardware"; the ST80 implementation
lineage (Deutsch & Schiffman) exploits the same latitude on sends with
inline caches.  This package supplies the shared machinery: epoch
stamps for provable invalidation (:mod:`~repro.perf.epochs`), per-store
cache state (:mod:`~repro.perf.caches`), and the unified observability
report (:mod:`~repro.perf.stats`).  See ``docs/performance.md`` for the
cache inventory — each cache's key, its invalidation trigger, and how to
read the report.
"""

from .caches import StoreCaches, store_caches
from .coherence import verify_cache_coherence, verify_parse_path_memo
from .epochs import Epoch, class_epoch, next_store_token
from .stats import object_cache_report, reset_stats, stats

__all__ = [
    "Epoch",
    "StoreCaches",
    "class_epoch",
    "next_store_token",
    "object_cache_report",
    "reset_stats",
    "stats",
    "store_caches",
    "verify_cache_coherence",
    "verify_parse_path_memo",
]
