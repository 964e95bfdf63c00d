"""Autoscaler: hysteresis, cooldown, clamps, and decision determinism.

The controller is driven here by hand-fed ``pdc_service_*`` samples (the
same series the query service records), so each property is isolated
from workload noise.
"""

import math

import numpy as np
import pytest

from repro.cluster.autoscale import Autoscaler, AutoscalerConfig
from repro.cluster.membership import LIVE
from repro.cluster.rebalance import ClusterManager
from repro.errors import PDCError
from repro.obs.monitor import ServiceMonitor
from tests.conftest import make_system

CFG = dict(
    min_servers=2,
    max_servers=4,
    target_p99_wait_s=0.004,
    low_p99_wait_s=0.001,
    window_s=0.01,
    evaluate_interval_s=0.001,
    breach_ticks=2,
    idle_ticks=3,
    cooldown_s=0.001,
    step=1,
)


def make_stack(rng, **overrides):
    sysm = make_system(n_servers=2, region_size_bytes=1 << 11)
    sysm.create_object(
        "energy", rng.gamma(2.0, 0.7, 1 << 12).astype(np.float32)
    )
    monitor = ServiceMonitor()
    sysm.set_monitor(monitor)
    manager = ClusterManager(sysm)
    cfg = AutoscalerConfig(**{**CFG, **overrides})
    return sysm, monitor, Autoscaler(manager, monitor, cfg)


def feed_wait(monitor, t, wait_s, tenant="t0"):
    monitor.recorder.observe(
        "pdc_service_queue_wait_sim_seconds", t, wait_s, tenant=tenant
    )


def feed_outcome(monitor, t, outcome, tenant="t0"):
    monitor.recorder.observe(
        "pdc_service_outcomes", t, 1.0, tenant=tenant, outcome=outcome
    )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"min_servers": 0},
            {"max_servers": 1},  # below min_servers=2
            {"low_p99_wait_s": 0.004},  # no hysteresis gap
            {"window_s": 0.0},
            {"evaluate_interval_s": 0.0},
            {"breach_ticks": 0},
            {"idle_ticks": 0},
            {"step": 0},
            {"step": 1.5},
            {"step": True},
            {"max_servers": 4.0},
            {"breach_ticks": math.inf},
            {"target_p99_wait_s": math.nan},
            {"low_p99_wait_s": -math.inf},
            {"window_s": math.inf},
            {"evaluate_interval_s": math.nan},
            {"cooldown_s": math.nan},
            {"cooldown_s": -1.0},
            {"max_shed_rate": math.nan},
            {"max_shed_rate": -0.1},
        ],
    )
    def test_bad_knobs_rejected(self, bad):
        with pytest.raises(PDCError):
            AutoscalerConfig(**{**CFG, **bad})


class TestSignals:
    def test_empty_window_is_nan_and_zero(self, rng):
        _, _, scaler = make_stack(rng)
        p99, shed_rate, n = scaler.signals(1.0)
        assert math.isnan(p99) and shed_rate == 0.0 and n == 0

    def test_p99_folds_all_tenants(self, rng):
        _, monitor, scaler = make_stack(rng)
        for i in range(50):
            feed_wait(monitor, 0.005, 0.001, tenant="a")
        feed_wait(monitor, 0.006, 0.100, tenant="b")
        p99, _, n = scaler.signals(0.01)
        assert n == 51
        assert p99 > 0.001  # the cross-tenant outlier is visible

    def test_shed_fraction(self, rng):
        _, monitor, scaler = make_stack(rng)
        for _ in range(3):
            feed_outcome(monitor, 0.005, "submitted")
        feed_outcome(monitor, 0.006, "shed")
        feed_outcome(monitor, 0.006, "done")  # not a submission outcome
        _, shed_rate, _ = scaler.signals(0.01)
        assert shed_rate == pytest.approx(1 / 3)

    def test_window_excludes_old_samples(self, rng):
        _, monitor, scaler = make_stack(rng)
        feed_wait(monitor, 0.001, 0.5)
        p99, _, n = scaler.signals(0.5)  # window_s=0.01 ends long after
        assert n == 0 and math.isnan(p99)


class TestScaleOut:
    def test_breach_ticks_gate_the_scale_out(self, rng):
        sysm, monitor, scaler = make_stack(rng)
        feed_wait(monitor, 0.0009, 0.05)
        assert scaler.on_tick(0.001) is None  # one breach: not yet
        feed_wait(monitor, 0.0019, 0.05)
        decision = scaler.on_tick(0.002)  # second consecutive breach
        assert decision is not None and decision.action == "scale_out"
        assert decision.n_servers_before == 2
        assert decision.n_servers_after == 3
        assert "p99=" in decision.reason
        assert len(sysm.membership.ids_in(LIVE)) == 3
        assert sysm.n_servers == 3

    def test_shed_rate_alone_triggers_scale_out(self, rng):
        sysm, monitor, scaler = make_stack(rng)
        for t in (0.001, 0.002):
            feed_outcome(monitor, t - 0.0001, "submitted")
            feed_outcome(monitor, t - 0.0001, "shed")
            decision = scaler.on_tick(t)
        assert decision is not None
        assert "shed_rate=" in decision.reason
        assert len(sysm.membership.ids_in(LIVE)) == 3

    def test_max_servers_clamp(self, rng):
        sysm, monitor, scaler = make_stack(rng, max_servers=3)
        t = 0.0
        for _ in range(12):
            t += 0.002
            feed_wait(monitor, t - 0.0001, 0.05)
            scaler.on_tick(t)
        assert len(sysm.membership.ids_in(LIVE)) == 3
        # Once at the ceiling, breaches stop producing decisions.
        assert all(d.n_servers_after <= 3 for d in scaler.decisions)

    def test_interleaved_recovery_resets_the_breach_count(self, rng):
        sysm, monitor, scaler = make_stack(rng)
        feed_wait(monitor, 0.0009, 0.05)
        assert scaler.on_tick(0.001) is None
        # A healthy-but-not-idle evaluation (between the watermarks,
        # after the breach sample has left the window) resets the
        # streak: the next breach starts from scratch.
        feed_wait(monitor, 0.0119, 0.002)
        assert scaler.on_tick(0.012) is None
        feed_wait(monitor, 0.0239, 0.05)
        assert scaler.on_tick(0.024) is None
        assert len(sysm.membership.ids_in(LIVE)) == 2


class TestCooldownAndCadence:
    def test_evaluations_are_rate_limited(self, rng):
        _, monitor, scaler = make_stack(rng)
        feed_wait(monitor, 0.0009, 0.05)
        assert scaler.on_tick(0.001) is None
        # Same instant again: not evaluated (breach count unchanged).
        assert scaler.on_tick(0.001) is None
        assert scaler._breach_count == 1

    def test_cooldown_blocks_back_to_back_actions(self, rng):
        sysm, monitor, scaler = make_stack(rng, cooldown_s=0.05)
        t = 0.0
        for _ in range(10):
            t += 0.002
            feed_wait(monitor, t - 0.0001, 0.05)
            scaler.on_tick(t)
        # Only the first action fit inside 20 ms of simulated time.
        assert len(scaler.decisions) == 1
        assert len(sysm.membership.ids_in(LIVE)) == 3


class TestScaleIn:
    def grow_to(self, sysm, monitor, scaler, n, t=0.0):
        while len(sysm.membership.ids_in(LIVE)) < n:
            t += 0.002
            feed_wait(monitor, t - 0.0001, 0.05)
            scaler.on_tick(t)
        return t

    def test_idle_ticks_shrink_the_fleet(self, rng):
        sysm, monitor, scaler = make_stack(rng)
        t = self.grow_to(sysm, monitor, scaler, 3)
        t += 0.02  # let the surge samples age out of the window
        # An empty window is idle (nan p99, zero sheds): after
        # idle_ticks consecutive evaluations the fleet shrinks.
        decision = None
        for _ in range(CFG["idle_ticks"]):
            t += 0.002
            decision = scaler.on_tick(t)
        assert decision is not None and decision.action == "scale_in"
        assert "idle" in decision.reason
        assert decision.to_record()["p99_wait_s"] is None  # nan encodes None
        assert len(sysm.membership.ids_in(LIVE)) == 2

    def test_min_servers_clamp(self, rng):
        sysm, monitor, scaler = make_stack(rng)
        t = 0.0
        for _ in range(20):
            t += 0.002
            scaler.on_tick(t)
        # Idle forever, but the fleet never shrinks below min_servers.
        assert len(sysm.membership.ids_in(LIVE)) == 2
        assert scaler.decisions == []

    def test_low_watermark_is_the_hysteresis_gap(self, rng):
        sysm, monitor, scaler = make_stack(rng)
        t = self.grow_to(sysm, monitor, scaler, 3)
        t += 0.02  # let the surge samples age out of the window
        # Waits between low and target watermarks are neither breach nor
        # idle: the fleet holds steady indefinitely.
        for _ in range(3 * CFG["idle_ticks"]):
            t += 0.002
            feed_wait(monitor, t - 0.0001, 0.002)
            scaler.on_tick(t)
        assert len(sysm.membership.ids_in(LIVE)) == 3


class TestDeterminism:
    def script(self, rng):
        sysm, monitor, scaler = make_stack(rng)
        t = 0.0
        for i in range(30):
            t += 0.002
            if i < 8:
                feed_wait(monitor, t - 0.0001, 0.05)
            scaler.on_tick(t)
        return sysm, scaler

    def test_same_script_same_fingerprint(self):
        a = self.script(np.random.default_rng(7))[1]
        b = self.script(np.random.default_rng(7))[1]
        assert a.decisions == b.decisions
        assert a.fingerprint() == b.fingerprint()
        assert len(a.decisions) >= 2  # the script scales out and back in

    def test_decisions_feed_the_cluster_series(self, rng):
        sysm, scaler = self.script(rng)
        names = {s.name for s in scaler.monitor.recorder.all_series()}
        assert "pdc_cluster_scale_decisions" in names
        assert "pdc_cluster_servers" in names
        assert "pdc_cluster_membership_events" in names
        # The membership stream matches the decisions that fired.
        joins = sum(
            1 for e in sysm.membership.events if e.kind == "join"
        )
        assert joins == sum(
            d.amount for d in scaler.decisions if d.action == "scale_out"
        )
