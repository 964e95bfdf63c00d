"""Server-side LRU region cache.

§VI-A observes *"a decrease in the query evaluation time when more data is
selected ... due to the caching mechanism provided by the PDC: as the
queries are evaluated sequentially, an increasing number of the regions'
data are cached in the PDC servers' memory and do not require storage
access."*  This cache reproduces that effect: each PDC server caches the
region payloads it has read, bounded by the server memory limit (64 GB in
the paper's runs — tracked in *virtual* bytes so the limit is meaningful at
paper scale).

Entries are **size-only**: the query executor computes query answers on
whole-object arrays (vectorized) while charging I/O per region, so for cost
accounting the cache only needs to know *whether* a region is resident and
how big it is.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, KeysView, List, Tuple

__all__ = ["RegionCache", "CacheStats"]


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0
    #: Entries removed by explicit :meth:`RegionCache.invalidate` calls
    #: (object rewrites, replica drops) — not capacity pressure.
    invalidations: int = 0
    #: Entries removed by :meth:`RegionCache.clear` (cache drops,
    #: crash simulation).
    clears: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class RegionCache:
    """LRU mapping from region key → size, bounded in virtual bytes.

    ``virtual_scale`` converts real (scaled-down) payload sizes into the
    paper-scale footprint the 64 GB limit applies to.  A single entry larger
    than the capacity is simply not cached.
    """

    def __init__(
        self,
        capacity_bytes: float,
        virtual_scale: float = 1.0,
        *,
        metrics,
        owner: str,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity_bytes = float(capacity_bytes)
        self.virtual_scale = float(virtual_scale)
        #: key -> virtual bytes, least recently used first.
        self._entries: "OrderedDict[Hashable, float]" = OrderedDict()
        self._used = 0.0
        self.stats = CacheStats()
        # The owner's MetricsRegistry feed; labeled children are resolved
        # once here so the per-lookup cost is a single counter increment.
        lookups = metrics.counter(
            "pdc_cache_lookups_total",
            "Region-cache lookups by server and result.",
            labels=("server", "result"),
        )
        self._m_hit = lookups.labels(server=owner, result="hit")
        self._m_miss = lookups.labels(server=owner, result="miss")
        # Every way an entry leaves the cache feeds the same family so
        # dashboards can reconcile used_bytes against inserts minus
        # removals: capacity evictions, explicit invalidations, and
        # whole-cache clears each get their own reason label.
        removals = metrics.counter(
            "pdc_cache_evictions_total",
            "Region-cache entry removals by server and reason.",
            labels=("server", "reason"),
        )
        self._m_evict = removals.labels(server=owner, reason="capacity")
        self._m_invalidate = removals.labels(server=owner, reason="invalidate")
        self._m_clear = removals.labels(server=owner, reason="clear")

    # ------------------------------------------------------------------- api
    def lookup(self, key: Hashable) -> bool:
        """Whether ``key`` is resident; a hit refreshes its LRU position
        (counted by the caller's :meth:`tally`)."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return True
        return False

    def admit(self, key: Hashable, nbytes: float) -> int:
        """Put a size-only entry of ``nbytes`` real bytes (nothing when it
        cannot fit at all), evicting least recently used entries to make
        room; returns how many, for the caller's :meth:`tally`."""
        vsize = nbytes * self.virtual_scale
        if vsize > self.capacity_bytes:
            return 0
        entries, evicted = self._entries, 0
        if key in entries:
            self._used -= entries.pop(key)
        while self._used + vsize > self.capacity_bytes and entries:
            self._used -= entries.popitem(last=False)[1]
            evicted += 1
        entries[key] = vsize
        self._used += vsize
        self.stats.inserts += 1
        return evicted

    def tally(self, hits: int, misses: int, evictions: int) -> None:
        """Count a share's lookups and evictions
        (:meth:`repro.pdc.server.PDCServer.touch_share`) at once."""
        self.stats.hits += hits
        self.stats.misses += misses
        self.stats.evictions += evictions
        if hits:
            self._m_hit.inc(hits)
        if misses:
            self._m_miss.inc(misses)
        if evictions:
            self._m_evict.inc(evictions)

    def contains(self, key: Hashable) -> bool:
        """Presence check that does not disturb LRU order or stats."""
        return key in self._entries

    @property
    def resident(self) -> KeysView:
        """The resident keys, a live view: presence checks over many keys
        without disturbing LRU order or stats."""
        return self._entries.keys()

    def invalidate(self, key: Hashable) -> bool:
        vbytes = self._entries.pop(key, None)
        if vbytes is None:
            return False
        self._used -= vbytes
        self.stats.invalidations += 1
        self._m_invalidate.inc()
        return True

    def clear(self) -> None:
        dropped = len(self._entries)
        self._entries.clear()
        self._used = 0.0
        self.stats.clears += dropped
        if dropped:
            self._m_clear.inc(dropped)

    # ------------------------------------------------------------ inspection
    def entries(self) -> List[Tuple[Hashable, float]]:
        """Snapshot of ``(key, virtual_bytes)`` in LRU order (oldest first).

        Does not disturb LRU position or stats — what tests compare when
        they check two runs left the same caches behind.
        """
        return list(self._entries.items())

    @property
    def used_bytes(self) -> float:
        """Virtual bytes currently cached."""
        return self._used

    def __len__(self) -> int:
        return len(self._entries)
