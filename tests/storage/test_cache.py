"""Tests for the LRU region cache."""

import pytest

from repro.errors import RegionUnavailableError
from repro.faults.plan import FaultConfig, FaultPlan
from repro.obs import MetricsRegistry
from repro.pdc.server import PDCServer
from repro.storage.cache import RegionCache
from repro.storage.costmodel import CostModel


def cache(capacity, **kwargs):
    """A bare cache counting into a registry of its own."""
    return RegionCache(capacity, metrics=MetricsRegistry(), owner="s0", **kwargs)


def put(c, key, nbytes):
    """Insert the way ``PDCServer.touch_share`` does: admit, then tally
    the evictions it made."""
    c.tally(0, 0, c.admit(key, nbytes))


class TestBasics:
    def test_miss_then_hit(self):
        c = cache(100)
        assert not c.lookup("a")
        assert c.admit("a", 10) == 0
        assert c.lookup("a")
        c.tally(1, 1, 0)
        assert c.stats.hits == 1 and c.stats.misses == 1
        assert c.stats.inserts == 1

    def test_lookup_size_only_entry(self):
        c = cache(100)
        put(c, "a", nbytes=10)
        assert c.lookup("a")
        assert c.contains("a")

    def test_failed_fetch_is_not_inserted_and_ends_the_pass(self):
        """A miss whose read fails for good is counted, not inserted, and no
        key after it is looked up; with ``on_lost`` it is flagged None and
        the rest of its region is dropped."""
        server = PDCServer(0, CostModel(), metrics=MetricsRegistry())
        c = server.cache
        put(c, "a", nbytes=10)
        plan = FaultPlan(0, FaultConfig(pfs_read_error_rate=1.0, max_retries=0))
        asked = []
        fails = plan.pfs_read_fails
        plan.pfs_read_fails = lambda key: asked.append(key) or fails(key)
        server.fault_plan = plan
        share = (["a", "b", "c"], [10, 10, 10], ["r0", "r1", "r2"],
                 [1e-3] * 3, ["pfs_read"] * 3)
        with pytest.raises(RegionUnavailableError):
            server.touch_share(*share)
        assert asked == ["b"]
        assert not c.contains("b") and not c.contains("c")
        assert (c.stats.hits, c.stats.misses, c.stats.inserts) == (1, 1, 1)

        lost = []
        keys, sizes, _, miss_s, category = share
        flags = server.touch_share(
            keys, sizes, ["r0", "r1", "r1"], miss_s, category,
            on_lost=lambda srv, region, error, t: lost.append(region),
        )
        assert flags == [True, None, None] and lost == ["r1"]
        assert asked == ["b", "b"] and not c.contains("c")

    def test_admit_leaves_evictions_to_the_tally(self):
        """``admit`` evicts but counts the evictions only when the caller
        tallies them, once — stats and metric alike."""
        m = MetricsRegistry()
        c = RegionCache(25, metrics=m, owner="s0")
        put(c, "a", 10)
        put(c, "b", 10)
        assert c.admit("c", 20) == 2
        assert c.stats.evictions == 0 and list(dict(c.entries())) == ["c"]
        c.tally(0, 1, 2)
        assert c.stats.evictions == 2 and c.stats.misses == 1
        removals = {
            labels["reason"]: value for name, _, labels, value in m.collect()
            if name == "pdc_cache_evictions_total"
        }
        assert removals["capacity"] == 2.0
        assert c.admit("big", 30) == 0 and not c.contains("big")

    def test_admit_requires_size(self):
        with pytest.raises(TypeError):
            cache(100).admit("a")

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            cache(0)

    def test_invalidate(self):
        c = cache(100)
        put(c, "a", 10)
        assert c.invalidate("a")
        assert not c.invalidate("a")
        assert not c.contains("a")

    def test_clear(self):
        c = cache(100)
        put(c, "a", 10)
        put(c, "b", 10)
        c.clear()
        assert len(c) == 0 and c.used_bytes == 0


class TestEviction:
    def test_lru_eviction_order(self):
        c = cache(30)
        put(c, "a", 10)
        put(c, "b", 10)
        put(c, "c", 10)
        assert c.lookup("a")  # refresh a → b is LRU
        put(c, "d", 10)
        assert c.contains("a") and c.contains("c") and c.contains("d")
        assert not c.contains("b")
        assert c.stats.evictions == 1

    def test_oversized_entry_not_cached(self):
        c = cache(10)
        assert c.admit("big", 20) == 0
        assert len(c) == 0

    def test_replace_same_key(self):
        c = cache(100)
        put(c, "a", 10)
        put(c, "a", 30)
        assert c.used_bytes == 30 and len(c) == 1

    def test_capacity_respected(self):
        c = cache(50)
        for i in range(20):
            put(c, f"k{i}", 10)
        assert c.used_bytes <= 50
        assert len(c) <= 5


class TestRemovalAccounting:
    """Regression: invalidate()/clear() used to bypass CacheStats and the
    metrics feed entirely — used_bytes could shrink with no removal ever
    counted, so dashboards could not reconcile inserts against removals."""

    def test_invalidate_counted_in_stats(self):
        c = cache(100)
        put(c, "a", 10)
        put(c, "b", 10)
        assert c.invalidate("a")
        assert c.stats.invalidations == 1
        assert c.stats.evictions == 0  # not a capacity eviction
        c.invalidate("zzz")  # absent key: no count
        assert c.stats.invalidations == 1

    def test_clear_counts_dropped_entries(self):
        c = cache(100)
        for i in range(3):
            put(c, f"k{i}", 10)
        c.clear()
        assert c.stats.clears == 3
        c.clear()  # empty cache: nothing more to count
        assert c.stats.clears == 3

    def test_removal_reasons_reconcile_with_inserts(self):
        c = cache(30)
        for i in range(4):
            put(c, f"k{i}", 10)  # 4th insert evicts k0
        c.invalidate("k1")
        c.clear()
        removed = c.stats.evictions + c.stats.invalidations + c.stats.clears
        assert removed == c.stats.inserts - len(c) == 4
        assert (c.stats.evictions, c.stats.invalidations, c.stats.clears) == (1, 1, 2)

    def test_metrics_reason_labels(self):
        registry = MetricsRegistry()
        c = RegionCache(30, metrics=registry, owner="server0")
        for i in range(4):
            put(c, f"k{i}", 10)
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
        c = cache(5_000_000, virtual_scale=1000.0)
        put(c, "a", 1000)
        assert c.used_bytes == pytest.approx(1_000_000)
        for i in range(10):
            put(c, f"k{i}", 1000)
        assert c.used_bytes <= 5_000_000

    def test_contains_does_not_touch_stats(self):
        c = cache(100)
        put(c, "a", 10)
        h, m = c.stats.hits, c.stats.misses
        c.contains("a")
        c.contains("zzz")
        assert (c.stats.hits, c.stats.misses) == (h, m)

    def test_hit_rate(self):
        c = cache(100)
        assert c.stats.hit_rate == 0.0
        put(c, "a", 1)
        c.tally(c.lookup("a"), not c.lookup("b"), 0)
        assert c.stats.hit_rate == pytest.approx(0.5)
