"""Reproducibility guarantees: same seed, same run — and a zero-rate plan
is bit-identical to no plan at all (acceptance criteria of the fault
layer)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultConfig, FaultPlan, ZERO_FAULTS
from repro.query.ast import Condition, combine_and, combine_or
from repro.query.executor import QueryEngine
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp

from tests.conftest import make_system

FAULTY = FaultConfig(
    pfs_read_error_rate=0.1,
    pfs_slow_rate=0.1,
    server_crash_rate=0.15,
    server_slow_rate=0.2,
)


def _fresh_deployment():
    """A brand-new deployment each call: cold caches, zeroed clocks."""
    rng = np.random.default_rng(12345)
    sysm = make_system()
    n = 1 << 14
    e = rng.gamma(2.0, 0.7, n).astype(np.float32)
    x = (rng.random(n) * 300.0).astype(np.float32)
    sysm.create_object("energy", e)
    sysm.create_object("x", x)
    sysm.build_index("energy")
    sysm.build_index("x")
    sysm.build_sorted_replica("energy", ["x"])
    node = combine_or(
        combine_and(
            Condition("energy", QueryOp.GT, PDCType.FLOAT, 2.0),
            Condition("x", QueryOp.LT, PDCType.FLOAT, 150.0),
        ),
        Condition("x", QueryOp.GT, PDCType.FLOAT, 290.0),
    )
    return sysm, node


def _run(plan, strategy):
    sysm, node = _fresh_deployment()
    if plan is not None:
        sysm.set_fault_plan(plan)
    res = QueryEngine(sysm).execute(node, strategy=strategy)
    return res, sysm


def _fingerprint(res):
    return (
        res.nhits,
        res.selection.coords.tobytes(),
        res.elapsed_s,
        res.retries,
        res.failovers,
        res.complete,
        res.timed_out,
        tuple(sorted(res.lost_regions)),
        tuple(sorted(res.server_errors)),
    )


class TestSameSeedSameRun:
    @pytest.mark.parametrize(
        "strategy",
        [Strategy.FULL_SCAN, Strategy.HISTOGRAM, Strategy.HIST_INDEX,
         Strategy.SORT_HIST],
    )
    def test_bit_identical_across_runs(self, strategy):
        res_a, _ = _run(FaultPlan(seed=99, config=FAULTY), strategy)
        res_b, _ = _run(FaultPlan(seed=99, config=FAULTY), strategy)
        assert _fingerprint(res_a) == _fingerprint(res_b)

    def test_same_seed_same_injection_counts(self):
        plan_a = FaultPlan(seed=99, config=FAULTY)
        plan_b = FaultPlan(seed=99, config=FAULTY)
        _run(plan_a, Strategy.FULL_SCAN)
        _run(plan_b, Strategy.FULL_SCAN)
        assert plan_a.snapshot() == plan_b.snapshot()

    def test_different_seeds_eventually_differ(self):
        # Not a hard guarantee for any single pair, so try a few seeds:
        # at a 15% crash rate some seed must produce a different run.
        base = _fingerprint(_run(FaultPlan(seed=0, config=FAULTY),
                                 Strategy.FULL_SCAN)[0])
        assert any(
            _fingerprint(_run(FaultPlan(seed=s, config=FAULTY),
                              Strategy.FULL_SCAN)[0]) != base
            for s in range(1, 6)
        )


class TestZeroRatePlanIsInvisible:
    @pytest.mark.parametrize(
        "strategy",
        [Strategy.FULL_SCAN, Strategy.HISTOGRAM, Strategy.HIST_INDEX,
         Strategy.SORT_HIST, Strategy.AUTO],
    )
    def test_zero_rates_bit_identical_to_no_plan(self, strategy):
        res_none, sysm_none = _run(None, strategy)
        res_zero, sysm_zero = _run(FaultPlan(seed=123, config=ZERO_FAULTS), strategy)
        assert _fingerprint(res_none) == _fingerprint(res_zero)
        # Clocks agree to the bit: the zero-rate plan charged nothing.
        for s_none, s_zero in zip(sysm_none.servers, sysm_zero.servers):
            assert s_none.clock.now == s_zero.clock.now
        assert sysm_none.client_clock.now == sysm_zero.client_clock.now

    def test_zero_rate_plan_never_draws(self):
        plan = FaultPlan(seed=123, config=ZERO_FAULTS)
        _run(plan, Strategy.FULL_SCAN)
        assert plan._counters == {}
        assert plan.injected() == 0
