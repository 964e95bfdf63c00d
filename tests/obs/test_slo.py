"""SLO declarations, burn-rate evaluation, and the deterministic alert
stream."""

import pytest

from repro.errors import PDCError
from repro.obs.slo import SLO, Alert, SLOMonitor


def make_slo(**kwargs):
    defaults = dict(
        name="shed-slo",
        tenant="a",
        sli="shed",
        objective=0.9,
        fast_window_s=1.0,
        slow_window_s=5.0,
        fast_burn=5.0,
        slow_burn=1.0,
    )
    defaults.update(kwargs)
    return SLO(**defaults)


class TestSLOValidation:
    def test_budget(self):
        assert make_slo(objective=0.9).budget == pytest.approx(0.1)

    def test_bad_objective(self):
        with pytest.raises(PDCError, match="objective"):
            make_slo(objective=1.0)
        with pytest.raises(PDCError, match="objective"):
            make_slo(objective=0.0)

    def test_bad_sli(self):
        with pytest.raises(PDCError, match="unknown SLI"):
            make_slo(sli="latency")

    def test_queue_wait_needs_threshold(self):
        with pytest.raises(PDCError, match="threshold"):
            make_slo(sli="queue_wait", threshold_s=None)
        make_slo(sli="queue_wait", threshold_s=0.1)  # ok

    def test_window_ordering(self):
        with pytest.raises(PDCError, match="fast window"):
            make_slo(fast_window_s=10.0, slow_window_s=5.0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(PDCError, match="duplicate"):
            SLOMonitor((make_slo(), make_slo()))


class TestClassify:
    def test_rejected_is_no_population(self):
        for sli, kw in (
            ("shed", {}),
            ("error", {}),
            ("timeout", {}),
            ("queue_wait", {"threshold_s": 0.1}),
        ):
            slo = make_slo(sli=sli, **kw)
            assert slo.classify("rejected", None, False) is None

    def test_shed_sli(self):
        slo = make_slo(sli="shed")
        assert slo.classify("shed", 0.5, False) is True
        assert slo.classify("done", 0.0, False) is False
        assert slo.classify("failed", 0.0, False) is False

    def test_queue_wait_sli(self):
        slo = make_slo(sli="queue_wait", threshold_s=0.1)
        assert slo.classify("done", 0.2, False) is True
        assert slo.classify("done", 0.05, False) is False
        # Shed requests waited past their deadline by definition.
        assert slo.classify("shed", None, False) is True

    def test_error_sli(self):
        slo = make_slo(sli="error")
        assert slo.classify("failed", None, False) is True
        assert slo.classify("done", None, False) is False
        assert slo.classify("shed", None, False) is None

    def test_timeout_sli(self):
        slo = make_slo(sli="timeout")
        assert slo.classify("done", None, True) is True
        assert slo.classify("done", None, False) is False
        assert slo.classify("failed", None, False) is None


class TestBurnRate:
    def test_fast_burn_fires_and_clears(self):
        mon = SLOMonitor((make_slo(),))
        # 10% budget; all-bad traffic = burn 10 >= fast threshold 5.
        alerts = []
        alerts += mon.observe(0.1, "a", "shed")
        st = mon.states[0]
        assert st.burn_fast == pytest.approx(10.0)
        assert [(a.window, a.kind) for a in alerts] == [
            ("fast", "fire"), ("slow", "fire"),
        ]
        # Good traffic dilutes the window; once burn drops below the
        # threshold the alert clears.
        t = 0.1
        while mon.states[0].firing_fast:
            t += 0.05
            mon.observe(t, "a", "done")
        kinds = [(a.window, a.kind) for a in mon.alerts]
        assert ("fast", "clear") in kinds

    def test_clear_without_new_events(self):
        mon = SLOMonitor((make_slo(),))
        mon.observe(0.1, "a", "shed")
        assert mon.states[0].firing_fast
        # Time passes, no events: the bad event leaves the windows.
        fired = mon.evaluate(10.0)
        assert ("fast", "clear") in [(a.window, a.kind) for a in fired]
        assert not mon.states[0].firing_fast
        assert not mon.states[0].firing_slow

    def test_slow_burn_catches_sustained_leak(self):
        mon = SLOMonitor((make_slo(fast_burn=50.0),))
        # 20% bad sustained: slow burn 2 >= 1 fires; fast threshold 50
        # never does.
        t = 0.0
        for i in range(50):
            t += 0.09
            mon.observe(t, "a", "shed" if i % 5 == 0 else "done")
        windows = {a.window for a in mon.alerts}
        assert windows == {"slow"}

    def test_wildcard_tenant_matches_all(self):
        mon = SLOMonitor((make_slo(tenant="*"),))
        mon.observe(0.1, "x", "shed")
        mon.observe(0.1, "y", "shed")
        assert mon.states[0].total == 2

    def test_other_tenant_ignored(self):
        mon = SLOMonitor((make_slo(tenant="a"),))
        mon.observe(0.1, "b", "shed")
        assert mon.states[0].total == 0
        assert mon.alerts == []

    def test_events_pruned_past_slow_window(self):
        mon = SLOMonitor((make_slo(),))
        for i in range(100):
            mon.observe(0.5 * i, "a", "done")
        st = mon.states[0]
        assert st.total == 100  # cumulative counters keep everything
        assert len(st.events) <= 11  # only the slow window is retained

    def test_budget_used_cumulative(self):
        mon = SLOMonitor((make_slo(),))
        mon.observe(0.1, "a", "shed")
        mon.observe(0.2, "a", "done")
        # 1 bad / 2 total / 0.1 budget = 5x the whole-run budget.
        assert mon.states[0].budget_used == pytest.approx(5.0)


class TestAlertStream:
    def feed(self, mon):
        t = 0.0
        for i in range(40):
            t += 0.1
            mon.observe(t, "a", "shed" if 10 <= i < 15 else "done")
        mon.evaluate(t + 5.0)

    def test_fingerprint_deterministic(self):
        a, b = SLOMonitor((make_slo(),)), SLOMonitor((make_slo(),))
        self.feed(a)
        self.feed(b)
        assert a.alerts  # the scenario produces transitions
        assert a.fingerprint() == b.fingerprint()
        assert a.to_records() == b.to_records()

    def test_alert_record_round_trip(self):
        mon = SLOMonitor((make_slo(),))
        self.feed(mon)
        rec = mon.alerts[0].to_record()
        assert Alert(**rec) == mon.alerts[0]
