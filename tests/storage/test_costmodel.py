"""Tests for the simulated-time cost model and clocks."""

import math

import pytest

from repro.storage.costmodel import CostModel, SimClock
from repro.types import GB, MB


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_charge_accumulates(self):
        c = SimClock()
        c.charge(1.0, "a")
        c.charge(0.5, "b")
        assert c.now == pytest.approx(1.5)
        assert c.breakdown() == {"a": 1.0, "b": 0.5}

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            SimClock().charge(-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_charge_rejected(self, bad):
        with pytest.raises(ValueError):
            SimClock().charge(bad)

    def test_advance_to_only_forward(self):
        c = SimClock()
        c.charge(2.0)
        c.advance_to(1.0)
        assert c.now == 2.0
        c.advance_to(3.0)
        assert c.now == 3.0
        assert c.breakdown()["wait"] == pytest.approx(1.0)


class TestCostModel:
    def setup_method(self):
        self.m = CostModel()

    def test_read_monotone_in_bytes(self):
        t1 = self.m.pfs_read_time(1 * MB, 1, 8)
        t2 = self.m.pfs_read_time(2 * MB, 1, 8)
        assert t2 > t1

    def test_read_monotone_in_accesses(self):
        assert self.m.pfs_read_time(1 * MB, 4, 8) > self.m.pfs_read_time(1 * MB, 1, 8)

    def test_seek_latency_floor(self):
        assert self.m.pfs_read_time(1, 1, 8) >= self.m.params.seek_latency_s

    def test_contention_slows_reads(self):
        uncontended = self.m.pfs_read_time(64 * MB, 1, 8, concurrent_readers=1)
        contended = self.m.pfs_read_time(64 * MB, 1, 8, concurrent_readers=512)
        assert contended > uncontended

    def test_striping_helps_until_saturation(self):
        narrow = self.m.pfs_read_time(256 * MB, 1, 1, concurrent_readers=1)
        wide = self.m.pfs_read_time(256 * MB, 1, 32, concurrent_readers=1)
        assert wide < narrow

    def test_stripe_count_capped(self):
        at_cap = self.m.pfs_read_time(256 * MB, 1, self.m.params.max_stripe_count)
        beyond = self.m.pfs_read_time(256 * MB, 1, 10_000)
        assert beyond == pytest.approx(at_cap)

    def test_virtual_scale_multiplies_bytes(self):
        scaled = CostModel(virtual_scale=100.0)
        base = CostModel(virtual_scale=1.0)
        t_scaled = scaled.pfs_read_time(1 * MB, 0, 8)
        t_base = base.pfs_read_time(1 * MB, 0, 8)
        assert t_scaled == pytest.approx(100.0 * t_base)

    def test_scaled_false_ignores_virtual_scale(self):
        scaled = CostModel(virtual_scale=100.0)
        base = CostModel(virtual_scale=1.0)
        assert scaled.pfs_read_time(1 * MB, 1, 8, scaled=False) == pytest.approx(
            base.pfs_read_time(1 * MB, 1, 8)
        )
        assert scaled.net_time(1 * MB, scaled=False) == pytest.approx(
            base.net_time(1 * MB)
        )
        assert scaled.mem_copy_time(1 * MB, scaled=False) == pytest.approx(
            base.mem_copy_time(1 * MB)
        )

    def test_write_slower_than_read(self):
        assert self.m.pfs_write_time(8 * MB, 1, 8) > self.m.pfs_read_time(8 * MB, 1, 8)

    def test_scan_linear(self):
        assert self.m.scan_time(2000) == pytest.approx(2 * self.m.scan_time(1000))
        assert self.m.scan_time(1000, n_conditions=3) == pytest.approx(
            3 * self.m.scan_time(1000)
        )

    def test_binary_search_logarithmic(self):
        t1 = self.m.binary_search_time(1 << 10)
        t2 = self.m.binary_search_time(1 << 20)
        assert t2 == pytest.approx(2 * t1)

    def test_sort_superlinear(self):
        assert self.m.sort_time(2000) > 2 * self.m.sort_time(1000)

    def test_net_time_has_latency_floor(self):
        assert self.m.net_time(0) == pytest.approx(self.m.params.net_latency_s)

    def test_wah_scan_linear(self):
        assert self.m.wah_scan_time(100) == pytest.approx(
            100 * self.m.params.wah_word_cost_s
        )

    def test_mem_faster_than_pfs(self):
        assert self.m.mem_copy_time(64 * MB) < self.m.pfs_read_time(64 * MB, 1, 64)
