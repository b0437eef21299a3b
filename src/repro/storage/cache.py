"""An LRU cache of decoded objects in front of the stable store.

The paper's Object Manager keeps hot objects in a session's main memory;
this shared cache plays that role for the stable store.  Benchmarks flush
it to force cold (track-reading) access paths.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..core.objects import GemObject


class ObjectCache:
    """LRU-evicting map from oid to decoded :class:`GemObject`.

    ``capacity=None`` means unbounded (the default for correctness-first
    use); benchmarks size it to model a memory budget.
    ``generation`` changes whenever an entry leaves or is replaced, so
    what was built from lookups (member columns) can tell it is stale.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("cache capacity must be positive or None")
        self.capacity = capacity
        self._entries: "OrderedDict[int, GemObject]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.generation = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, oid: int) -> bool:
        return oid in self._entries

    def get(self, oid: int) -> Optional[GemObject]:
        """Look up *oid*; refreshes recency on a hit."""
        obj = self._entries.get(oid)
        if obj is None:
            self.misses += 1
            return None
        self._entries.move_to_end(oid)
        self.hits += 1
        return obj

    def get_hits(self, oids: list[int]) -> list[Optional[GemObject]]:
        """Bulk :meth:`get` on an unbounded cache, counting only the hits.

        A ``None`` in the answer is a miss the caller still has to take
        through :meth:`get`, which is where it is counted.  Recency is
        not refreshed: with no capacity nothing is ever evicted, so the
        order is never consulted.
        """
        assert self.capacity is None
        found = self.peek(oids)
        self.hits += len(found) - found.count(None)
        return found

    def peek(self, oids: list[int]) -> list[Optional[GemObject]]:
        """Bulk lookup that neither counts nor refreshes recency."""
        return list(map(self._entries.get, oids))

    def put(self, obj: GemObject) -> None:
        """Insert or refresh an object, evicting the LRU entry if full."""
        if self._entries.get(obj.oid, obj) is not obj:
            self.generation += 1
        self._entries[obj.oid] = obj
        self._entries.move_to_end(obj.oid)
        if self.capacity is not None:
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                self.generation += 1

    def evict(self, oid: int) -> None:
        """Drop one entry if present."""
        self._entries.pop(oid, None)
        self.generation += 1

    def flush(self) -> None:
        """Drop every entry (benchmarks: force cold reads)."""
        self._entries.clear()
        self.generation += 1

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
