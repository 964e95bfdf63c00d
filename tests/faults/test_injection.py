"""Fault injection through the full stack: retries, failover, degraded
results and timeouts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RegionUnavailableError
from repro.faults import FaultConfig, FaultPlan
from repro.pdc.region import region_key
from repro.query.ast import Condition, combine_and
from repro.query.executor import QueryEngine
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp

from tests.conftest import make_system


def _loaded_system(rng):
    sysm = make_system()
    n = 1 << 14
    e = rng.gamma(2.0, 0.7, n).astype(np.float32)
    x = (rng.random(n) * 300.0).astype(np.float32)
    sysm.create_object("energy", e)
    sysm.create_object("x", x)
    truth = int(((e > 2.0) & (x < 150.0)).sum())
    node = combine_and(
        Condition("energy", QueryOp.GT, PDCType.FLOAT, 2.0),
        Condition("x", QueryOp.LT, PDCType.FLOAT, 150.0),
    )
    return sysm, node, truth


class TestRetries:
    def test_transient_read_errors_are_retried_and_charged(self, rng):
        sysm, node, truth = _loaded_system(rng)
        base = QueryEngine(sysm).execute(node, strategy=Strategy.FULL_SCAN)
        assert base.retries == 0

        sysm2, node2, _ = _loaded_system(np.random.default_rng(12345))
        sysm2.set_fault_plan(
            FaultPlan(seed=11, config=FaultConfig(pfs_read_error_rate=0.2))
        )
        res = QueryEngine(sysm2).execute(node2, strategy=Strategy.FULL_SCAN)
        # Transient errors (20% per attempt, 3 retries) recover fully.
        assert res.complete
        assert res.nhits == truth
        assert res.retries > 0
        # Backoff + re-reads cost simulated time.
        assert res.elapsed_s > base.elapsed_s

    def test_slow_reads_cost_time_but_stay_exact(self, rng):
        sysm, node, truth = _loaded_system(rng)
        base = QueryEngine(sysm).execute(node, strategy=Strategy.FULL_SCAN)

        sysm2, node2, _ = _loaded_system(np.random.default_rng(12345))
        sysm2.set_fault_plan(
            FaultPlan(
                seed=11,
                config=FaultConfig(pfs_slow_rate=1.0),
            )
        )
        res = QueryEngine(sysm2).execute(node2, strategy=Strategy.FULL_SCAN)
        assert res.complete and res.nhits == truth
        assert res.retries == 0
        assert res.elapsed_s > base.elapsed_s

    def test_permanent_read_failure_degrades_result(self, rng):
        sysm, node, truth = _loaded_system(rng)
        sysm.set_fault_plan(
            FaultPlan(
                seed=1,
                config=FaultConfig(pfs_read_error_rate=1.0, max_retries=2),
            )
        )
        res = QueryEngine(sysm).execute(node, strategy=Strategy.FULL_SCAN)
        assert not res.complete
        assert not res.timed_out
        assert res.lost_regions
        assert res.server_errors
        # The degraded answer is a subset of the truth (never invented hits).
        assert res.nhits <= truth
        # Everything was unreadable, so nothing survives.
        assert res.nhits == 0

    @pytest.mark.parametrize("strategy", [Strategy.HISTOGRAM, Strategy.FULL_SCAN])
    def test_region_lost_from_the_middle_of_a_surviving_run(self, rng, strategy):
        """The first condition is masked over runs of adjacent surviving
        regions; a region lost inside a run takes exactly its own hits."""

        class LoseRegion(FaultPlan):
            def pfs_read_fails(self, key: str) -> bool:
                return key == region_key("energy", 4)

        per = 2048  # 8 KiB regions of float32
        e = rng.random(8 * per).astype(np.float32)
        e[2 * per : 6 * per : 7] = 2.5  # regions 2-5 survive `> 2` as one run
        sysm = make_system()
        sysm.create_object("energy", e)
        sysm.set_fault_plan(LoseRegion(seed=0, config=FaultConfig(max_retries=1)))
        res = QueryEngine(sysm).execute(
            Condition("energy", QueryOp.GT, PDCType.FLOAT, 2.0), strategy=strategy
        )
        truth = np.flatnonzero(e > 2.0)
        kept = truth[(truth < 4 * per) | (truth >= 5 * per)]
        assert 0 < kept.size < truth.size
        assert np.array_equal(res.selection.coords, kept)
        assert not res.complete
        assert res.lost_regions == [region_key("energy", 4)]

    def test_ensure_region_raises_after_budget(self, rng):
        sysm, _, _ = _loaded_system(rng)
        server = sysm.servers[0]
        server.fault_plan = FaultPlan(
            seed=0, config=FaultConfig(pfs_read_error_rate=1.0, max_retries=1)
        )
        with pytest.raises(RegionUnavailableError, match="after 2 attempts"):
            server.ensure_region("region:k", 4096, 1, 4, 1)
        assert server.retries_total == 1
        assert not server.cache.contains("region:k")


class TestFailover:
    def test_crashed_server_share_is_reassigned(self, rng):
        sysm, node, truth = _loaded_system(rng)
        sysm.set_fault_plan(
            FaultPlan(seed=2, config=FaultConfig(server_crash_rate=1.0))
        )
        res = QueryEngine(sysm).execute(node, strategy=Strategy.FULL_SCAN)
        # Shares fail over, so the answer stays complete and exact.
        assert res.complete
        assert res.nhits == truth
        assert res.failovers >= 1
        assert sysm.crashed
        assert len(sysm.alive_servers) >= 1
        for errors in res.server_errors.values():
            assert any("crashed" in e for e in errors)

    def test_straggler_drag_slows_query_and_resets(self, rng):
        sysm, node, truth = _loaded_system(rng)
        base = QueryEngine(sysm).execute(node, strategy=Strategy.FULL_SCAN)

        sysm2, node2, _ = _loaded_system(np.random.default_rng(12345))
        sysm2.set_fault_plan(
            FaultPlan(
                seed=3,
                config=FaultConfig(server_slow_rate=1.0),
            )
        )
        res = QueryEngine(sysm2).execute(node2, strategy=Strategy.FULL_SCAN)
        assert res.complete and res.nhits == truth
        assert res.elapsed_s > base.elapsed_s
        # Drags are per-query: every clock multiplier is restored after.
        assert all(s.clock.drag == 1.0 for s in sysm2.servers)


class TestTimeout:
    def test_tiny_deadline_times_out_with_partial_result(self, rng):
        sysm, node, truth = _loaded_system(rng)
        res = QueryEngine(sysm).execute(
            node, strategy=Strategy.FULL_SCAN, timeout_s=1e-9
        )
        assert res.timed_out
        assert not res.complete
        assert res.nhits <= truth

    def test_plan_default_timeout(self, rng):
        sysm, node, _ = _loaded_system(rng)
        sysm.set_fault_plan(
            FaultPlan(seed=0, config=FaultConfig(query_timeout_s=1e-9))
        )
        res = QueryEngine(sysm).execute(node, strategy=Strategy.FULL_SCAN)
        assert res.timed_out and not res.complete

    def test_generous_deadline_is_harmless(self, rng):
        sysm, node, truth = _loaded_system(rng)
        res = QueryEngine(sysm).execute(
            node, strategy=Strategy.FULL_SCAN, timeout_s=1e9
        )
        assert res.complete and not res.timed_out
        assert res.nhits == truth


class TestMetrics:
    def test_fault_counters_land_in_registry(self, rng):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        sysm = make_system(metrics=registry)
        n = 1 << 14
        rng2 = np.random.default_rng(12345)
        sysm.create_object("energy", rng2.gamma(2.0, 0.7, n).astype(np.float32))
        sysm.create_object("x", (rng2.random(n) * 300.0).astype(np.float32))
        node = combine_and(
            Condition("energy", QueryOp.GT, PDCType.FLOAT, 2.0),
            Condition("x", QueryOp.LT, PDCType.FLOAT, 150.0),
        )
        sysm.set_fault_plan(
            FaultPlan(seed=11, config=FaultConfig(pfs_read_error_rate=0.2))
        )
        res = QueryEngine(sysm).execute(node, strategy=Strategy.FULL_SCAN)
        assert res.retries > 0
        rendered = registry.render()
        assert 'pdc_faults_injected_total{kind="pfs_read_error"}' in rendered
        assert "pdc_fault_retries_total" in rendered
        assert "pdc_query_retries_total" in rendered
