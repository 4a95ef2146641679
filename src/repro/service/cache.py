"""LRU result cache for the serving layer.

Responses are cached under ``(dataset, dataset_version, dataset_seq,
canonical_query)`` keys.  Including the dataset version and ingest
sequence number in the key makes stale entries unreachable the moment a
dataset is reloaded — or appended to — and
:meth:`ResultCache.invalidate` additionally evicts them eagerly so the
memory is reclaimed rather than waiting for LRU pressure.

What the workspace stores under a key is the reply *as a hit sends it* —
canonical JSON whose ``provenance.cache`` already reads ``"hit"``,
written once at :meth:`ResultCache.put` time — so serving a hit is
handing out the stored text: no per-hit patch, and for a transport no
decode/encode round trip.  :meth:`ResultCache.peek` is the lookup of a
caller that falls back to a slower path on None: it counts the hit it
finds and leaves the miss for that path's :meth:`ResultCache.get`, so
``hits + misses`` stays the number of reads served.

The cache is thread-safe: every operation — including the LRU recency
update inside :meth:`ResultCache.get` — runs under one internal lock, so
concurrent serving threads can hit it freely and the hit/miss/eviction
counters stay exact.  Evictions are counted whether they come from LRU
pressure or from explicit invalidation; ``info()["invalidations"]``
additionally breaks out the explicit ones.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from typing import Any, Hashable

from repro.obs import lockhook


def _value_bytes(obj: Any) -> int:
    """Size a cached response document (plain JSON-shaped, acyclic).

    Computed once per ``put`` — the miss path already paid for the full
    pipeline, so the walk is noise there — and remembered per entry so
    evictions subtract exactly what inserts added.  This keeps the
    cache's row in the memory ledger incremental: no serving-path walk.
    """
    total = sys.getsizeof(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            total += _value_bytes(key) + _value_bytes(value)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            total += _value_bytes(item)
    return total

#: Cache keys are (dataset_name, dataset_version, dataset_seq,
#: canonical_query_json).  The sequence number is the append journal
#: position: every accepted append bumps it, making entries computed
#: before the append unreachable exactly like a version bump does.
CacheKey = tuple[str, int, int, str]


class ResultCache:
    """A small LRU cache with per-dataset invalidation and hit statistics."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._entries: OrderedDict[CacheKey, Any] = OrderedDict()
        self._sizes: dict[CacheKey, int] = {}
        self._bytes = 0
        self._lock = lockhook.rlock("cache.lock")
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> Any | None:
        """Return the cached value (refreshing its recency), or None."""
        return self._lookup(key, count_miss=True)

    def peek(self, key: CacheKey) -> Any | None:
        """:meth:`get` for a caller that will ask again when told None.

        A found value is a hit like any other (counted, recency
        refreshed); an absent one counts nothing — the slow path the
        caller falls back to counts that miss, once, through :meth:`get`.
        """
        return self._lookup(key, count_miss=False)

    def _lookup(self, key: CacheKey, count_miss: bool) -> Any | None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key]
            if count_miss:
                self._misses += 1
            return None

    def put(self, key: CacheKey, value: Any) -> None:
        """Insert a value, evicting the least recently used entry if full."""
        n_bytes = _value_bytes(value)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._bytes -= self._sizes.get(key, 0)
            self._entries[key] = value
            self._sizes[key] = n_bytes
            self._bytes += n_bytes
            while len(self._entries) > self._capacity:
                evicted_key, _ = self._entries.popitem(last=False)
                self._bytes -= self._sizes.pop(evicted_key, 0)
                self._evictions += 1

    def invalidate(self, dataset: str | None = None) -> int:
        """Evict entries for one dataset (or everything); returns the count.

        Explicit removals count toward ``info()["evictions"]`` exactly
        like LRU-pressure evictions (and toward ``"invalidations"``
        specifically), so the counters account for every entry that ever
        left the cache.
        """
        with self._lock:
            if dataset is None:
                evicted = len(self._entries)
                self._entries.clear()
                self._sizes.clear()
                self._bytes = 0
            else:
                stale = [key for key in self._entries if key[0] == dataset]
                for key in stale:
                    del self._entries[key]
                    self._bytes -= self._sizes.pop(key, 0)
                evicted = len(stale)
            self._evictions += evicted
            self._invalidations += evicted
            return evicted

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[CacheKey]:
        """Keys from least to most recently used."""
        with self._lock:
            return list(self._entries)

    def info(self) -> dict[str, int]:
        """Hit/miss/eviction counters plus current occupancy.

        ``evictions`` counts every removal (LRU pressure **and** explicit
        invalidation); ``invalidations`` is the explicit subset.
        ``bytes`` is the incrementally maintained resident-value estimate
        feeding the memory ledger.  Taken under the cache lock, so the
        snapshot is internally consistent even under concurrent traffic.
        """
        with self._lock:
            return {
                "capacity": self._capacity,
                "size": len(self._entries),
                "bytes": self._bytes,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
            }
