"""Region-read accounting regressions: warm-cache hits must reach the
monitor (labeled ``result="hit"``), and latency spikes are re-drawn per
retry attempt — with zero-rate plans staying bit-identical to no plan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RegionUnavailableError
from repro.faults import FaultConfig, FaultPlan
from repro.faults.plan import PFS_SLOW_FACTOR
from repro.obs.monitor import ServiceMonitor
from repro.query.ast import Condition
from repro.query.executor import QueryEngine
from repro.storage.costmodel import SimClock
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp
from tests.conftest import make_system


def _region_read_results(monitor):
    """result-label values seen on ``pdc_server_read_bytes`` samples."""
    out = {}
    for s in monitor.recorder.all_series():
        if s.name == "pdc_server_read_bytes":
            out[s.labels["result"]] = out.get(s.labels["result"], 0) + len(s)
    return out


class TestCacheHitMonitoring:
    def test_ensure_region_hit_reaches_monitor(self):
        """The regression: a warm-cache ``ensure_region`` used to return
        before the monitor hook, so cached traffic vanished from the
        utilization view."""
        sysm = make_system()
        monitor = ServiceMonitor()
        sysm.set_monitor(monitor)
        server = sysm.servers[0]

        assert not server.ensure_region("region:k0", 4096, 1, 4, 1)
        assert _region_read_results(monitor) == {"read": 1}
        # Second touch is a warm hit — must still be observed.
        assert server.ensure_region("region:k0", 4096, 1, 4, 1)
        assert _region_read_results(monitor) == {"read": 1, "hit": 1}

    def test_repeated_query_emits_hit_samples(self, rng):
        sysm = make_system()
        sysm.create_object(
            "energy", rng.gamma(2.0, 0.7, 1 << 14).astype(np.float32)
        )
        monitor = ServiceMonitor()
        sysm.set_monitor(monitor)
        node = Condition("energy", QueryOp.GT, PDCType.FLOAT, 2.0)
        engine = QueryEngine(sysm)

        engine.execute(node, strategy=Strategy.FULL_SCAN)
        cold = _region_read_results(monitor)
        assert cold.get("read", 0) > 0 and cold.get("hit", 0) == 0

        engine.execute(node, strategy=Strategy.FULL_SCAN)
        warm = _region_read_results(monitor)
        # The re-scan runs entirely over cached regions.
        assert warm["read"] == cold["read"]
        assert warm.get("hit", 0) >= cold["read"]


def replayed(charges):
    """Clock time after ``charges`` one by one on a fresh clock — the exact
    float sum the server's clock must reach."""
    clock = SimClock()
    for seconds in charges:
        clock.charge(seconds)
    return clock.now


class TestPerAttemptSlowRedraw:
    def test_slow_factor_redrawn_each_retry(self):
        """Each retry is a fresh PFS request: its latency spike is drawn
        independently, advancing the plan's ``(pfs_slow, key)`` draw
        counter once per attempt — not drawn once and reused."""
        cfg = FaultConfig(
            pfs_slow_rate=0.5,
            pfs_read_error_rate=1.0,
            max_retries=2,
        )
        sysm = make_system()
        server = sysm.servers[0]
        server.fault_plan = FaultPlan(seed=7, config=cfg)

        seconds = server.cost.pfs_read_time(4096, 1, 4, 1)
        assert server.clock.now == 0.0
        with pytest.raises(RegionUnavailableError):
            server.ensure_region("region:k", 4096, 1, 4, 1)

        # Replay the exact draw sequence on a fresh identical plan: three
        # attempts consume three consecutive slow draws for this key.
        ref = FaultPlan(seed=7, config=cfg)
        factors = [ref.pfs_slow_factor("region:k") for _ in range(3)]
        assert len(set(factors)) > 1, "seed must mix slow and normal draws"
        expected = replayed([
            seconds * factors[0], ref.backoff_s(1), seconds * factors[1],
            ref.backoff_s(2), seconds * factors[2],
        ])
        assert repr(server.clock.now) == repr(expected)

    def test_zero_rate_plan_is_bit_identical(self):
        """A plan with every rate at zero never draws: the charge pattern
        is byte-for-byte the no-plan path."""
        bare = make_system().servers[0]
        planned = make_system().servers[0]
        planned.fault_plan = FaultPlan(seed=123, config=FaultConfig())

        for i in range(50):
            for server in (bare, planned):
                server.ensure_region(f"region:k{i % 7}", 4096 * (i + 1), 1, 4, 1)
        assert repr(bare.clock.now) == repr(planned.clock.now)
        assert bare.cache.entries() == planned.cache.entries()
        assert planned.retries_total == 0

    def test_all_attempts_slow_when_rate_is_one(self):
        """rate=1.0 sanity: every one of the three attempts pays the
        spike (three slow charges, not one)."""
        cfg = FaultConfig(
            pfs_slow_rate=1.0,
            pfs_read_error_rate=1.0,
            max_retries=2,
        )
        sysm = make_system()
        server = sysm.servers[0]
        server.fault_plan = FaultPlan(seed=0, config=cfg)

        seconds = server.cost.pfs_read_time(4096, 1, 4, 1)
        ref = FaultPlan(seed=0, config=cfg)
        with pytest.raises(RegionUnavailableError):
            server.ensure_region("region:k", 4096, 1, 4, 1)
        expected = replayed([
            seconds * PFS_SLOW_FACTOR, ref.backoff_s(1),
            seconds * PFS_SLOW_FACTOR, ref.backoff_s(2),
            seconds * PFS_SLOW_FACTOR,
        ])
        assert repr(server.clock.now) == repr(expected)
