"""ServiceMonitor: hook wiring, zero-cost invariant, alert determinism
with pinned fire/clear instants, and behavior under fault injection."""

import pytest

from repro.faults import FaultConfig, FaultPlan
from repro.obs.monitor import ServiceMonitor
from repro.obs.slo import SLO
from repro.scenarios import MonitorRun, demo_monitor_run

FAULTY = FaultConfig(
    pfs_read_error_rate=0.05, pfs_slow_rate=0.1, server_slow_rate=0.1
)

#: Pinned simulated instants of the overload scenario's alert stream
#: (seed 1234, 150 requests): the fast-burn shed alert must fire during
#: the surge and clear once the backlog drains.  These are acceptance
#: criteria, not snapshots — a change here means the service's simulated
#: decisions changed.
PINNED_FAST_FIRE_S = 0.12751358240364097
PINNED_FAST_CLEAR_S = 0.13974031483920588


@pytest.fixture(scope="module")
def run() -> MonitorRun:
    return demo_monitor_run()


class TestWiring:
    def test_set_monitor_installs_and_uninstalls(self, run):
        system = run.system
        assert system.monitor is run.monitor
        assert all(s.monitor is run.monitor for s in system.servers)
        system.set_monitor(None)
        assert system.monitor is None
        assert all(s.monitor is None for s in system.servers)
        system.set_monitor(run.monitor)

    def test_service_series_recorded(self, run):
        rec = run.monitor.recorder
        names = {s.name for s in rec.all_series()}
        assert "pdc_service_outcomes" in names
        assert "pdc_service_queue_wait_sim_seconds" in names
        assert "pdc_service_queue_depth" in names
        assert "pdc_window_width" in names
        assert "pdc_server_read_bytes" in names

    def test_outcome_counts_match_service_stats(self, run):
        rec = run.monitor.recorder
        for tenant, st in run.service.stats.items():
            for outcome, expect in (
                ("submitted", st.submitted),
                ("done", st.done),
                ("shed", st.shed),
                ("rejected", st.rejected_rate + st.rejected_queue),
            ):
                s = rec.series(
                    "pdc_service_outcomes", tenant=tenant, outcome=outcome
                )
                got = len(s) if s is not None else 0
                assert got == expect, (tenant, outcome)

    def test_queue_wait_series_matches_dispatches(self, run):
        rec = run.monitor.recorder
        for tenant, st in run.service.stats.items():
            s = rec.series(
                "pdc_service_queue_wait_sim_seconds", tenant=tenant
            )
            got = len(s) if s is not None else 0
            assert got == st.dispatched

    def test_scrape_cadence_records_engine_counters(self, run):
        rec = run.monitor.recorder
        s = rec.series("pdc_service_windows_total")
        assert s is not None and s.kind == "counter"
        assert len(s) > 1
        ts = [smp.t_s for smp in s.samples]
        assert ts == sorted(ts)

    def test_region_reads_labeled_by_server(self, run):
        rec = run.monitor.recorder
        servers = {
            s.labels["server"]
            for s in rec.all_series()
            if s.name == "pdc_server_read_bytes"
        }
        assert len(servers) >= 1


class TestZeroCost:
    def test_disabled_run_bit_identical(self, run):
        """The acceptance criterion: with monitoring disabled, results,
        simulated clocks, and rendered engine metrics are bit-identical
        (the monitor only ever reads clocks, so the enabled run is too)."""
        off = demo_monitor_run(monitored=False)
        assert off.monitor is None and off.alerts == []
        assert [
            (t.status, t.reject_reason, t.queue_wait_s) for t in off.tickets
        ] == [(t.status, t.reject_reason, t.queue_wait_s) for t in run.tickets]
        assert [
            getattr(t.result, "nhits", None) for t in off.tickets
        ] == [getattr(t.result, "nhits", None) for t in run.tickets]
        assert off.t_end == run.t_end
        assert [c.now for c in off.system.all_clocks()] == [
            c.now for c in run.system.all_clocks()
        ]
        assert (
            off.system.metrics.render() == run.system.metrics.render()
        )


class TestAlertDeterminism:
    def test_fingerprint_reproduces(self, run):
        again = demo_monitor_run()
        assert again.monitor.fingerprint() == run.monitor.fingerprint()
        assert [a.to_record() for a in again.alerts] == [
            a.to_record() for a in run.alerts
        ]

    def test_pinned_fast_burn_fire_and_clear(self, run):
        fast = [
            a for a in run.alerts
            if a.slo == "bursty-shed" and a.window == "fast"
        ]
        assert [a.kind for a in fast] == ["fire", "clear"]
        fire, clear = fast
        assert fire.t_s == PINNED_FAST_FIRE_S
        assert clear.t_s == PINNED_FAST_CLEAR_S
        assert fire.burn_rate >= 5.0
        # Nothing is left firing once the load drops and the run drains.
        assert not any(
            st.firing_fast or st.firing_slow for st in run.monitor.slo.states
        )

    def test_alert_stream_under_faults_deterministic(self):
        a = demo_monitor_run(fault_plan=FaultPlan(seed=7, config=FAULTY))
        b = demo_monitor_run(fault_plan=FaultPlan(seed=7, config=FAULTY))
        assert a.monitor.fingerprint() == b.monitor.fingerprint()
        assert len(a.alerts) > 0
        # Overload still sheds under faults; fingerprints reflect the
        # perturbed timeline (faults change simulated decisions).
        assert sum(s.shed for s in a.service.stats.values()) > 0


class TestStatusSurfaces:
    def test_render_status_lists_tenants_and_slos(self, run):
        text = run.monitor.render_status(run.t_end)
        assert "bursty-shed" in text
        assert "steady" in text and "bursty" in text
        assert "burn_fast" in text

    def test_tenant_window(self, run):
        tw = run.monitor.tenant_window("steady", run.t_end, 0.05)
        assert tw["submitted"].count > 0
        assert tw["queue_wait"].kind == "event"

    def test_monitor_validation(self):
        with pytest.raises(ValueError):
            ServiceMonitor(scrape_interval_s=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_window_rejected(self, bad):
        """The window is a constant; a caller's own width still passes the
        recorder's check."""
        with pytest.raises(ValueError, match="finite"):
            ServiceMonitor().tenant_window("t", 1.0, width_s=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_scrape_interval_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ServiceMonitor(scrape_interval_s=bad)

    def test_duplicate_slo_rejected(self):
        s = SLO(name="x", tenant="*", sli="shed", objective=0.9)
        with pytest.raises(Exception, match="duplicate"):
            ServiceMonitor(slos=(s, s))
