"""Cluster equivalence contracts.

Two claims ride the crash / recover transitions:

* **Recovered equivalence** — after a crash and a recovery, a workload
  replayed from reset clocks and cold caches is bit-identical (answers
  *and* clocks) to the same workload on a fleet that never failed.
* **Default-off bit-identity** — a deployment that never exercises the
  cluster APIs behaves exactly as one built before the subsystem
  existed: no crashed server, no ``pdc_cluster_*`` series, identical
  results and clocks whether or not read-only cluster surfaces are
  touched.
"""

import numpy as np

from repro.faults import FaultConfig, FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import ServiceMonitor
from repro.query.ast import Condition, combine_and
from repro.query.executor import QueryEngine
from repro.types import PDCType, QueryOp
from tests.conftest import make_system, zero_clocks


def cond(name, op, value):
    return Condition(
        object_name=name, op=QueryOp(op), pdc_type=PDCType.FLOAT, value=value
    )


def build_system(n_servers, metrics=None):
    """Identical payloads on any fleet size."""
    sysm = make_system(
        n_servers=n_servers,
        region_size_bytes=1 << 11,
        metrics=metrics,
    )
    rng = np.random.default_rng(99)
    sysm.create_object(
        "energy", rng.gamma(2.0, 0.7, 1 << 13).astype(np.float32)
    )
    sysm.create_object(
        "x", (rng.random(1 << 13) * 300.0).astype(np.float32)
    )
    return sysm


WORKLOAD = (
    cond("energy", ">", 2.0),
    combine_and(cond("energy", ">", 1.0), cond("x", "<", 150.0)),
    cond("x", "<=", 30.0),
    cond("energy", ">", 0.2),
)


def membership_samples(monitor):
    """``(t_s, server, event)`` of every transition the monitor recorded,
    in time order."""
    return sorted(
        (sample.t_s, series.labels["server"], series.labels["event"])
        for series in monitor.recorder.all_series()
        if series.name == "pdc_cluster_membership_events"
        for sample in series.samples
    )


def run_workload(sysm):
    """(answers, per-alive-server clock/breakdown, client clock)."""
    engine = QueryEngine(sysm)
    answers = [engine.execute(node).nhits for node in WORKLOAD]
    clocks = [
        (s.server_id, s.clock.now, tuple(sorted(s.clock.breakdown().items())))
        for s in sysm.alive_servers
    ]
    return answers, clocks, sysm.client_clock.now


class TestRecoveredEquivalence:
    """A crashed-then-recovered fleet replays bit-identically to a fleet
    that never failed: recovery rejoins by the routing rule, so nothing
    has to be copied back."""

    def test_recovered_matches_static_cluster(self):
        recovered = build_system(4)
        recovered.fail_server(2)
        QueryEngine(recovered).execute(WORKLOAD[1])  # runs on 3 servers
        recovered.recover_server(2)
        zero_clocks(recovered)
        recovered.drop_all_caches()
        static = build_system(4)
        assert list(recovered.alive_servers) == recovered.servers
        assert run_workload(recovered) == run_workload(static)


class TestInterleavings:
    """Crash and recovery interleaved with ingest, batch windows, and
    fault plans keep answers exact and replay bit-identically."""

    def interleaved_run(self, seed):
        from repro.service import QueryService, ServiceConfig, Tenant

        sysm = build_system(3)
        sysm.set_fault_plan(
            FaultPlan(
                seed=seed,
                config=FaultConfig(pfs_slow_rate=0.2, server_slow_rate=0.1),
            )
        )
        monitor = ServiceMonitor()
        sysm.set_monitor(monitor)
        svc = QueryService(
            sysm,
            ServiceConfig(tenants=(Tenant("t"),), batch_window=2),
        )
        rng = np.random.default_rng(seed)
        truth = np.array(sysm.get_object("energy").data)

        def burst(t):
            tickets = []
            for _ in range(6):
                t += float(rng.exponential(0.002))
                thr = float(np.float32(rng.uniform(0.5, 3.0)))
                tickets.append(
                    (thr, svc.submit("t", cond("energy", ">", thr), arrival_s=t))
                )
            svc.drain()
            return t, tickets

        # (threshold, ticket, truth as of its burst) for every request.
        tickets = []
        t = max(c.now for c in sysm.all_clocks())
        t, got = burst(t)
        tickets += [(thr, tk, truth) for thr, tk in got]
        sysm.fail_server(1)  # 3 -> 2 serving, mid-workload
        extra = rng.gamma(2.0, 0.7, 1 << 10).astype(np.float32)
        sysm.append_to_object("energy", extra)  # ingest between windows
        truth = np.concatenate([truth, extra])
        t = max(t, max(c.now for c in sysm.all_clocks()))
        t, got = burst(t)
        tickets += [(thr, tk, truth) for thr, tk in got]
        sysm.recover_server(1)  # 2 -> 3 serving
        t = max(t, max(c.now for c in sysm.all_clocks()))
        t, got = burst(t)
        tickets += [(thr, tk, truth) for thr, tk in got]
        svc.close()

        for thr, ticket, _ in tickets:
            assert ticket.status == "done"
        state = tuple(
            (tk.status, tk.queue_wait_s, tk.result.nhits) for _, tk, _ in tickets
        )
        clocks = tuple(c.now for c in sysm.all_clocks())
        return state, clocks, membership_samples(monitor), tickets

    def test_answers_exact_through_churn_and_ingest(self):
        _, _, events, tickets = self.interleaved_run(31)
        assert [(server, event) for _, server, event in events] == [
            ("server1", "crash"), ("server1", "recover"),
        ]
        # Exactness through every interleaving: each answer matches the
        # ground truth as of its burst (appends land between bursts,
        # never inside one).
        for thr, ticket, truth in tickets:
            assert ticket.result.nhits == int((truth > thr).sum())

    def test_same_seed_interleaved_run_is_bit_identical(self):
        a = self.interleaved_run(31)
        b = self.interleaved_run(31)
        assert a[0] == b[0]  # every ticket's terminal state
        assert a[1] == b[1]  # every clock, position-wise
        assert a[2] == b[2]  # the monitor's membership samples


class TestDefaultOff:
    """Satellite: no cluster use, no cluster cost — bit-identical to the
    pre-subsystem system, with no ``pdc_cluster_*`` telemetry."""

    def run_plain(self, peek_cluster):
        sysm = build_system(4, metrics=MetricsRegistry())
        monitor = ServiceMonitor(registry=sysm.metrics, scrape_interval_s=0.01)
        sysm.set_monitor(monitor)
        if peek_cluster:
            # Read-only cluster surfaces must not perturb anything.
            assert [sysm.server_of_region(r) for r in range(5)] == [0, 1, 2, 3, 0]
            assert not sysm.crashed
            np.testing.assert_array_equal(
                sysm.region_owner_positions(np.arange(8)), np.arange(8) % 4
            )
        result = run_workload(sysm)
        monitor.on_tick(max(c.now for c in sysm.all_clocks()))
        return sysm, monitor, result

    def test_untouched_cluster_leaves_no_trace(self):
        sysm, monitor, _ = self.run_plain(peek_cluster=False)
        assert sysm.crashed == set()
        assert not any(
            name.startswith("pdc_cluster") for name in sysm.metrics.names()
        )
        assert not any(
            s.name.startswith("pdc_cluster")
            for s in monitor.recorder.all_series()
        )

    def test_read_only_peeks_are_bit_identical(self):
        plain = self.run_plain(peek_cluster=False)
        peeked = self.run_plain(peek_cluster=True)
        assert plain[2] == peeked[2]
        assert plain[1].fingerprint() == peeked[1].fingerprint()
        # Identical metric families either way (and none cluster-flavoured).
        assert plain[0].metrics.names() == peeked[0].metrics.names()


class TestFailServerUnification:
    """``fail_server`` / ``recover_server`` are the only transitions."""

    def test_fail_and_recover_route_through_membership(self):
        sysm = build_system(4)
        sysm.fail_server(2)
        assert sysm.crashed == {2}
        assert [s.server_id for s in sysm.alive_servers] == [0, 1, 3]
        sysm.recover_server(2)
        assert sysm.crashed == set()
        assert list(sysm.alive_servers) == sysm.servers
        # Fleet-size semantics unchanged: crashes never shrink n_servers.
        sysm.fail_server(2)
        assert sysm.n_servers == 4

    def test_membership_counter_tracks_fail_events(self):
        sysm = build_system(4, metrics=MetricsRegistry())
        sysm.fail_server(1)
        sysm.recover_server(1)
        assert sysm.metrics.total("pdc_cluster_membership_total") == 2.0


class TestMonitorSeries:
    """A crash and a recovery under a scraping monitor record their
    series at the clock frontier without disturbing the drain-fed ones."""

    def test_crash_and_recover_series(self):
        from repro.service import QueryService, ServiceConfig, Tenant

        sysm = build_system(3, metrics=MetricsRegistry())
        monitor = ServiceMonitor(registry=sysm.metrics, scrape_interval_s=1e-4)
        sysm.set_monitor(monitor)
        svc = QueryService(sysm, ServiceConfig(tenants=(Tenant("t"),)))
        svc.submit("t", cond("energy", ">", 2.0), arrival_s=0.0)
        svc.drain()
        frontier = max(c.now for c in sysm.all_clocks())
        sysm.fail_server(1)
        t_crash = frontier
        QueryEngine(sysm).execute(WORKLOAD[0])
        t_recover = max(c.now for c in sysm.all_clocks())
        sysm.recover_server(1)
        assert membership_samples(monitor) == [
            (t_crash, "server1", "crash"), (t_recover, "server1", "recover"),
        ]
        serving = monitor.recorder.series("pdc_cluster_serving_servers")
        assert [(s.t_s, s.value) for s in serving.samples] == [
            (t_crash, 2.0), (t_recover, 3.0),
        ]
        waits = monitor.recorder.series(
            "pdc_service_queue_wait_sim_seconds", tenant="t"
        )
        # A request that arrived before the frontier dispatches after the
        # transitions: its sample still lands, and every series (the
        # scraped queue-depth gauge included) stays in time order.
        svc.submit("t", cond("energy", ">", 1.0), arrival_s=0.0)
        svc.drain()
        assert len(waits) == 2
        for series in monitor.recorder.all_series():
            ts = [s.t_s for s in series.samples]
            assert ts == sorted(ts), series.name
        svc.close()
