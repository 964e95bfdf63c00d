"""Tests for the LRU region cache."""

import pytest

from repro.obs import MetricsRegistry
from repro.storage.cache import RegionCache


class TestBasics:
    def test_miss_then_hit(self):
        c = RegionCache(100)
        assert c.touch_many(["a"], [10]) == [False]
        assert c.touch_many(["a"], [10]) == [True]
        assert c.stats.hits == 1 and c.stats.misses == 1
        assert c.stats.inserts == 1

    def test_lookup_size_only_entry(self):
        c = RegionCache(100)
        c.put("a", nbytes=10)
        assert c.touch_many(["a"], [10]) == [True]
        assert c.contains("a")

    def test_failed_fetch_is_not_inserted_and_ends_the_pass(self):
        """A miss whose read fails is counted, not inserted, flagged None,
        and no key after it is looked up."""
        c = RegionCache(100)
        c.put("a", nbytes=10)
        asked = []
        flags = c.touch_many(
            ["a", "b", "c"], [10, 10, 10], lambda key: asked.append(key) or False
        )
        assert flags == [True, None] and asked == ["b"]
        assert not c.contains("b") and not c.contains("c")
        assert (c.stats.hits, c.stats.misses, c.stats.inserts) == (1, 1, 1)

    def test_put_requires_size(self):
        with pytest.raises(TypeError):
            RegionCache(100).put("a")

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            RegionCache(0)

    def test_invalidate(self):
        c = RegionCache(100)
        c.put("a", 10)
        assert c.invalidate("a")
        assert not c.invalidate("a")
        assert not c.contains("a")

    def test_clear(self):
        c = RegionCache(100)
        c.put("a", 10)
        c.put("b", 10)
        c.clear()
        assert len(c) == 0 and c.used_bytes == 0


class TestEviction:
    def test_lru_eviction_order(self):
        c = RegionCache(30)
        c.put("a", 10)
        c.put("b", 10)
        c.put("c", 10)
        c.touch_many(["a"], [10])  # refresh a → b is LRU
        c.put("d", 10)
        assert c.contains("a") and c.contains("c") and c.contains("d")
        assert not c.contains("b")
        assert c.stats.evictions == 1

    def test_oversized_entry_not_cached(self):
        c = RegionCache(10)
        assert not c.put("big", 20)
        assert len(c) == 0

    def test_replace_same_key(self):
        c = RegionCache(100)
        c.put("a", 10)
        c.put("a", 30)
        assert c.used_bytes == 30 and len(c) == 1

    def test_capacity_respected(self):
        c = RegionCache(50)
        for i in range(20):
            c.put(f"k{i}", 10)
        assert c.used_bytes <= 50
        assert len(c) <= 5


class TestRemovalAccounting:
    """Regression: invalidate()/clear() used to bypass CacheStats and the
    metrics feed entirely — used_bytes could shrink with no removal ever
    counted, so dashboards could not reconcile inserts against removals."""

    def test_invalidate_counted_in_stats(self):
        c = RegionCache(100)
        c.put("a", 10)
        c.put("b", 10)
        assert c.invalidate("a")
        assert c.stats.invalidations == 1
        assert c.stats.evictions == 0  # not a capacity eviction
        c.invalidate("zzz")  # absent key: no count
        assert c.stats.invalidations == 1

    def test_clear_counts_dropped_entries(self):
        c = RegionCache(100)
        for i in range(3):
            c.put(f"k{i}", 10)
        c.clear()
        assert c.stats.clears == 3
        c.clear()  # empty cache: nothing more to count
        assert c.stats.clears == 3

    def test_removal_reasons_reconcile_with_inserts(self):
        c = RegionCache(30)
        for i in range(4):
            c.put(f"k{i}", 10)  # 4th insert evicts k0
        c.invalidate("k1")
        c.clear()
        removed = c.stats.evictions + c.stats.invalidations + c.stats.clears
        assert removed == c.stats.inserts - len(c) == 4
        assert (c.stats.evictions, c.stats.invalidations, c.stats.clears) == (1, 1, 2)

    def test_metrics_reason_labels(self):
        registry = MetricsRegistry()
        c = RegionCache(30, metrics=registry, owner="server0")
        for i in range(4):
            c.put(f"k{i}", 10)
        c.invalidate("k1")
        c.clear()
        fam = registry.counter(
            "pdc_cache_evictions_total",
            "Region-cache entry removals by server and reason.",
            labels=("server", "reason"),
        )
        assert fam.labels(server="server0", reason="capacity").total() == 1
        assert fam.labels(server="server0", reason="invalidate").total() == 1
        assert fam.labels(server="server0", reason="clear").total() == 2
        assert registry.total("pdc_cache_evictions_total") == 4


class TestVirtualScale:
    def test_virtual_bytes_counted(self):
        # 64 "virtual GB" capacity with scale 1000: a 1 KB real payload
        # occupies 1 MB virtual.
        c = RegionCache(5_000_000, virtual_scale=1000.0)
        c.put("a", 1000)
        assert c.used_bytes == pytest.approx(1_000_000)
        for i in range(10):
            c.put(f"k{i}", 1000)
        assert c.used_bytes <= 5_000_000

    def test_contains_does_not_touch_stats(self):
        c = RegionCache(100)
        c.put("a", 10)
        h, m = c.stats.hits, c.stats.misses
        c.contains("a")
        c.contains("zzz")
        assert (c.stats.hits, c.stats.misses) == (h, m)

    def test_hit_rate(self):
        c = RegionCache(100)
        assert c.stats.hit_rate == 0.0
        c.put("a", 1)
        c.touch_many(["a", "b"], [1, 1])
        assert c.stats.hit_rate == pytest.approx(0.5)
