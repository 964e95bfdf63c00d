"""QueryService behaviour: passthrough bit-identity, admission, shedding,
deadlines, fairness, and determinism."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.errors import ObjectNotFoundError, PDCError
from repro.obs.metrics import MetricsRegistry
from repro.query.ast import AndNode, Condition
from repro.query.scheduler import QueryScheduler
from repro.service import QueryService, ServiceConfig, Tenant
from repro.types import PDCType, QueryOp

from tests.conftest import make_system


def fresh_deployment(metrics=None):
    rng = np.random.default_rng(12345)
    sysm = make_system(metrics=metrics if metrics is not None else MetricsRegistry())
    sysm.create_object("energy", rng.gamma(2.0, 0.7, 1 << 14).astype(np.float32))
    sysm.create_object(
        "x", (rng.random(1 << 14) * 300.0).astype(np.float32)
    )
    sysm.build_index("energy")
    return sysm


def queries(n=10):
    return [
        Condition("energy", QueryOp.GT, PDCType.FLOAT, 0.4 + 0.2 * (i % 8))
        for i in range(n)
    ]


def fingerprint(res):
    return (res.nhits, res.elapsed_s, res.bytes_read_virtual, res.complete)


def engine_metric_lines(registry):
    """Registry render minus the service's own pdc_service_* families."""
    return [
        line
        for line in registry.render().splitlines()
        if not line.startswith("#") and not line.startswith("pdc_service_")
    ]


class TestPassthrough:
    def test_bit_identical_to_direct_scheduler(self):
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        sysm_a = fresh_deployment(reg_a)
        sched = QueryScheduler(sysm_a, max_width=4, use_selection_cache=False)
        direct = sched.run(queries())
        sched.close()

        sysm_b = fresh_deployment(reg_b)
        with QueryService(sysm_b, ServiceConfig(batch_window=4)) as svc:
            served = svc.run("default", queries())

        assert [fingerprint(r) for r in direct] == [
            fingerprint(r) for r in served
        ]
        assert [c.now for c in sysm_a.all_clocks()] == [
            c.now for c in sysm_b.all_clocks()
        ]
        # Every engine/server/storage metric must match sample for sample;
        # only the service's own families may differ.
        assert engine_metric_lines(reg_a) == engine_metric_lines(reg_b)

    def test_bit_identical_with_selection_cache(self):
        sysm_a = fresh_deployment()
        sched = QueryScheduler(sysm_a, max_width=4)
        direct = sched.run(queries()) + sched.run(queries())
        sched.close()

        sysm_b = fresh_deployment()
        cfg = ServiceConfig(batch_window=4, use_selection_cache=True)
        with QueryService(sysm_b, cfg) as svc:
            served = svc.run("default", queries()) + svc.run(
                "default", queries()
            )
        assert [fingerprint(r) for r in direct] == [
            fingerprint(r) for r in served
        ]

    def test_windows_match_scheduler_chunking(self):
        sysm = fresh_deployment()
        with QueryService(sysm, ServiceConfig(batch_window=4)) as svc:
            svc.run("default", queries(10))
            widths = [b.width for b in svc.scheduler.batches]
        assert widths == [4, 4, 2]


class TestAdmission:
    def test_queue_cap_rejects_overflow(self):
        sysm = fresh_deployment()
        cfg = ServiceConfig(tenants=(Tenant("t", queue_cap=3),))
        svc = QueryService(sysm, cfg)
        tickets = [svc.submit("t", q) for q in queries(5)]
        assert [t.status for t in tickets] == [
            "queued", "queued", "queued", "rejected", "rejected",
        ]
        assert all(t.reject_reason == "queue_full" for t in tickets[3:])
        svc.drain()
        assert [t.status for t in tickets[:3]] == ["done"] * 3
        assert svc.stats["t"].rejected_queue == 2
        assert sysm.metrics.total("pdc_service_rejected_total") == 2.0
        svc.close()

    def test_rate_limit_rejects_by_arrival_spacing(self):
        sysm = fresh_deployment()
        cfg = ServiceConfig(
            tenants=(Tenant("t", rate_limit_qps=1.0, burst=1.0),)
        )
        svc = QueryService(sysm, cfg)
        t0 = max(c.now for c in sysm.all_clocks())
        qs = queries(4)
        # Burst admits the first; the next two arrive inside the refill
        # window; the last arrives a full simulated second later.
        outcomes = [
            svc.submit("t", qs[0], arrival_s=t0).status,
            svc.submit("t", qs[1], arrival_s=t0 + 0.1).status,
            svc.submit("t", qs[2], arrival_s=t0 + 0.2).status,
            svc.submit("t", qs[3], arrival_s=t0 + 1.1).status,
        ]
        assert outcomes == ["queued", "rejected", "rejected", "queued"]
        svc.close()

    def test_unknown_tenant(self):
        sysm = fresh_deployment()
        with QueryService(sysm) as svc:
            with pytest.raises(PDCError, match="unknown tenant"):
                svc.submit("nobody", queries(1)[0])

    def test_submit_after_close(self):
        sysm = fresh_deployment()
        svc = QueryService(sysm)
        svc.close()
        svc.close()  # idempotent
        with pytest.raises(PDCError, match="closed"):
            svc.submit("default", queries(1)[0])


class TestOverload:
    def test_queue_deadline_sheds_instead_of_dispatching(self):
        sysm = fresh_deployment()
        cfg = ServiceConfig(
            tenants=(Tenant("t", queue_deadline_s=1e-4),), batch_window=1
        )
        svc = QueryService(sysm, cfg)
        tickets = [svc.submit("t", q) for q in queries(6)]
        svc.drain()
        statuses = [t.status for t in tickets]
        # The first request dispatches immediately; while it runs, the
        # rest blow their 0.1 simulated-ms queue budget and are shed.
        assert statuses[0] == "done"
        assert statuses[1:] == ["shed"] * 5
        assert all(t.finished for t in tickets)
        for t in tickets[1:]:
            assert t.result is None and t.queue_wait_s > 1e-4
        assert svc.stats["t"].shed == 5
        assert sysm.metrics.total("pdc_service_shed_total") == 5.0
        svc.close()

    def test_tenant_default_timeout_degrades_results(self):
        sysm = fresh_deployment()
        cfg = ServiceConfig(tenants=(Tenant("t", default_timeout_s=1e-9),))
        with QueryService(sysm, cfg) as svc:
            ticket = svc.submit("t", queries(1)[0])
            svc.drain()
        assert ticket.status == "done"
        assert ticket.result.timed_out and not ticket.result.complete
        assert svc.stats["t"].timed_out == 1
        assert svc.stats["t"].degraded == 1

    def test_per_request_timeout_overrides_tenant_default(self):
        sysm = fresh_deployment()
        cfg = ServiceConfig(tenants=(Tenant("t", default_timeout_s=1e-9),))
        with QueryService(sysm, cfg) as svc:
            ticket = svc.submit("t", queries(1)[0], timeout_s=60.0)
            svc.drain()
        assert ticket.result.complete and not ticket.result.timed_out

    def test_per_query_error_fails_only_that_ticket(self):
        sysm = fresh_deployment()
        with QueryService(sysm, ServiceConfig(batch_window=4)) as svc:
            good = svc.submit("default", queries(1)[0])
            bad = svc.submit(
                "default",
                Condition("missing", QueryOp.GT, PDCType.FLOAT, 1.0),
            )
            svc.drain()
        assert good.status == "done"
        assert bad.status == "failed"
        assert isinstance(bad.error, ObjectNotFoundError)
        assert svc.stats["default"].failed == 1

    def test_run_raises_on_failed_request(self):
        sysm = fresh_deployment()
        with QueryService(sysm) as svc:
            with pytest.raises(ObjectNotFoundError):
                svc.run(
                    "default",
                    [Condition("missing", QueryOp.GT, PDCType.FLOAT, 1.0)],
                )

    def test_future_arrivals_advance_clocks_not_hang(self):
        sysm = fresh_deployment()
        with QueryService(sysm, ServiceConfig(batch_window=1)) as svc:
            t0 = max(c.now for c in sysm.all_clocks())
            ticket = svc.submit("default", queries(1)[0], arrival_s=t0 + 5.0)
            done = svc.drain()
        assert [r.seq for r in done] == [ticket.seq]
        assert ticket.status == "done"
        assert ticket.queue_wait_s == 0.0
        assert min(c.now for c in sysm.all_clocks()) >= t0 + 5.0


class TestFairness:
    def _interleave(self, heavy_weight, n_heavy, n_light):
        sysm = fresh_deployment()
        cfg = ServiceConfig(
            tenants=(
                Tenant("heavy", weight=heavy_weight),
                Tenant("light", weight=1.0),
            ),
            policy="wfq",
            batch_window=1,
        )
        svc = QueryService(sysm, cfg)
        for q in queries(n_heavy):
            svc.submit("heavy", q)
        for q in queries(n_light):
            svc.submit("light", q)
        order = [r.tenant.name for r in svc.drain()]
        svc.close()
        return order

    def test_wfq_bounds_starvation(self):
        order = self._interleave(heavy_weight=3.0, n_heavy=24, n_light=6)
        # While the light tenant has queued work, the heavy tenant's
        # dispatch share cannot exceed its 3:1 weight share: before the
        # light tenant's k-th dispatch there are at most 3k heavy ones.
        light_positions = [i for i, n in enumerate(order) if n == "light"]
        assert len(light_positions) == 6
        for k, pos in enumerate(light_positions, start=1):
            heavy_before = pos + 1 - k
            assert heavy_before <= 3 * k, (k, order)

    def test_a_late_light_request_is_not_starved(self):
        """Eight heavy requests queued before one light one, equal
        weights: the light request's tag ties the first heavy one's, so
        it goes second, not last (arrival order would serve it ninth)."""
        sysm = fresh_deployment()
        cfg = ServiceConfig(
            tenants=(Tenant("heavy"), Tenant("light")), batch_window=1,
        )
        svc = QueryService(sysm, cfg)
        for q in queries(8):
            svc.submit("heavy", q)
        svc.submit("light", queries(1)[0])
        order = [r.tenant.name for r in svc.drain()]
        svc.close()
        assert order == ["heavy", "light"] + ["heavy"] * 7


class TestDeterminism:
    CFG = dict(
        tenants=(
            Tenant("a", weight=2.0, queue_deadline_s=0.004),
            Tenant("b", weight=1.0, rate_limit_qps=300.0, burst=2.0,
                   queue_cap=4),
        ),
        policy="wfq",
        batch_window=2,
    )

    def _run(self):
        sysm = fresh_deployment()
        svc = QueryService(sysm, ServiceConfig(**self.CFG))
        t0 = max(c.now for c in sysm.all_clocks())
        tickets = [
            svc.submit(
                "a" if i % 3 else "b", q, arrival_s=t0 + 4e-4 * i
            )
            for i, q in enumerate(queries(20))
        ]
        svc.drain()
        svc.close()
        return (
            [(t.status, t.reject_reason, t.queue_wait_s) for t in tickets],
            {n: (s.dispatched, s.shed, s.rejected_rate + s.rejected_queue,
                 s.queue_wait_total_s, s.service_total_s)
             for n, s in svc.stats.items()},
        )

    def test_same_config_same_decisions_and_slo_metrics(self):
        assert self._run() == self._run()


class TestAccounting:
    def test_every_ticket_terminal_and_counted_once(self):
        sysm = fresh_deployment()
        cfg = ServiceConfig(
            tenants=(
                Tenant("a", queue_cap=4),
                Tenant("b", rate_limit_qps=100.0, queue_deadline_s=0.002),
            ),
            policy="wfq",
            batch_window=2,
        )
        svc = QueryService(sysm, cfg)
        t0 = max(c.now for c in sysm.all_clocks())
        tickets = [
            svc.submit("a" if i % 2 else "b", q, arrival_s=t0 + 1e-4 * i)
            for i, q in enumerate(queries(16))
        ]
        svc.drain()
        svc.close()
        assert all(t.finished for t in tickets)
        for name in ("a", "b"):
            st = svc.stats[name]
            assert st.submitted == (
                st.admitted + st.rejected_rate + st.rejected_queue
            )
            assert st.admitted == st.dispatched + st.shed
            assert st.dispatched == st.done + st.failed
        reg = sysm.metrics
        assert reg.total("pdc_service_requests_total") == 16.0
        assert reg.total("pdc_service_admitted_total") + reg.total(
            "pdc_service_rejected_total"
        ) == 16.0

    def test_trace_spans_cover_lifecycle(self):
        from repro.obs import Tracer

        sysm = fresh_deployment()
        tracer = Tracer()
        sysm.set_tracer(tracer)
        with QueryService(sysm, ServiceConfig(batch_window=2)) as svc:
            svc.run("default", queries(4))
        names = [s.name for s in tracer.spans]
        events = [e.name for e in tracer.events]
        assert "service.dispatch" in names
        assert any(n.startswith("service.queue:") for n in names)
        assert any(e.startswith("service.admit:") for e in events)
        queue_spans = [
            s for s in tracer.spans if s.name.startswith("service.queue:")
        ]
        assert all(s.end_s >= s.start_s for s in queue_spans)


class TestRetention:
    """A service that runs for long keeps per-window counters, not answers."""

    TENANTS = (Tenant("gold", weight=4.0), Tenant("silver", weight=2.0),
               Tenant("bronze", weight=1.0))
    #: What the service may keep per window outside its selection cache: a
    #: counter record, eight queue waits, and the metric observations a
    #: histogram buffers until 1,024 have arrived.  One window's answers
    #: are tens of KiB here.
    BOUND_PER_WINDOW = 4096

    def service(self, monkeypatch, max_entries_per_object):
        """A seeded two-object deployment behind a three-tenant WFQ service
        with the selection cache on, and the burst that drives it: shaped
        like the service benchmark's (windows of eight: a hot repeat, a
        narrowing of it, fresh misses).  ``burst()`` returns its tickets,
        all done."""
        monkeypatch.setattr(
            "repro.query.scheduler.MAX_ENTRIES_PER_OBJECT", max_entries_per_object
        )
        rng = np.random.default_rng(7)
        sysm = make_system(metrics=MetricsRegistry())
        n = 1 << 13
        sysm.create_object("energy", rng.gamma(2.0, 0.7, n).astype(np.float32))
        sysm.create_object("x", (rng.random(n) * 300.0).astype(np.float32))
        svc = QueryService(sysm, ServiceConfig(
            tenants=self.TENANTS, policy="wfq", batch_window=8, use_selection_cache=True,
        ))

        def between(name, lo, hi):
            return AndNode((Condition(name, QueryOp.GTE, PDCType.FLOAT, lo),
                            Condition(name, QueryOp.LT, PDCType.FLOAT, hi)))

        def burst():
            requests = []
            for name, span in (("energy", 4.0), ("x", 300.0)):
                inside = (0.1 + 0.3 * rng.random()) * span
                fresh = (0.7 + 0.25 * rng.random()) * span
                requests += [
                    ("gold", between(name, 0.1 * span, 0.5 * span)),
                    ("silver", between(name, inside, inside + 0.05 * span)),
                    ("bronze", between(name, fresh, fresh + 0.02 * span)),
                    ("gold", between(name, fresh - 0.1 * span, fresh)),
                ]
            tickets = [svc.submit(tenant, node) for tenant, node in requests]
            svc.drain()
            assert [t.status for t in tickets] == ["done"] * len(requests)
            return tickets

        return svc, burst

    def test_memory_per_window_stays_bounded(self, monkeypatch):
        """Each burst's tickets dropped after its drain: from N to 4N
        bursts, traced memory minus the selection cache's coordinate bytes
        grows by less than ``BOUND_PER_WINDOW`` per window.  The cache keeps
        four entries per object, so it is full, and turning over, from the
        second burst on."""
        svc, burst = self.service(monkeypatch, max_entries_per_object=4)
        cache = svc.scheduler.selection_cache

        def retained():
            gc.collect()
            traced = tracemalloc.get_traced_memory()[0]
            return traced - cache.coordinate_bytes(), len(svc.scheduler.batches)

        n_bursts = 3
        tracemalloc.start()
        try:
            for _ in range(n_bursts):
                burst()
            bytes_n, windows_n = retained()
            for _ in range(3 * n_bursts):
                burst()
            bytes_4n, windows_4n = retained()
        finally:
            tracemalloc.stop()
        svc.close()
        stats = cache.stats
        assert stats.hits and stats.narrowed and stats.misses and stats.evictions
        assert windows_4n == 4 * windows_n == 4 * n_bursts
        growth = (bytes_4n - bytes_n) / (windows_4n - windows_n)
        assert growth < self.BOUND_PER_WINDOW

    def test_only_answers_served_again_keep_coordinates(self, monkeypatch):
        """With room for every entry (nothing evicted), the cache holds the
        coordinates of exactly the entries it served as hits: one array per
        entry, however often it was served, and none for an entry that was
        only put or only narrowed from."""
        svc, burst = self.service(monkeypatch, max_entries_per_object=32)
        cache = svc.scheduler.selection_cache
        served = {}
        for _ in range(4):
            for ticket in burst():
                if ticket.result.semantic_cache == "hit":
                    coords = ticket.result.selection.coords
                    served[id(coords)] = coords
        svc.close()
        stats = cache.stats
        assert stats.evictions == 0 and stats.narrowed and stats.misses
        assert 0 < len(served) < len(cache)
        assert cache.coordinate_bytes() == sum(c.nbytes for c in served.values())


class TestTenantStatsPercentiles:
    def test_percentiles_from_wait_histogram(self):
        sysm = fresh_deployment()
        cfg = ServiceConfig(
            tenants=(Tenant("a"), Tenant("b", weight=2.0)),
            policy="wfq",
            batch_window=2,
        )
        svc = QueryService(sysm, cfg)
        t0 = max(c.now for c in sysm.all_clocks())
        for i, q in enumerate(queries(20)):
            svc.submit("a" if i % 2 else "b", q, arrival_s=t0 + 5e-5 * i)
        svc.drain()
        svc.close()
        for name in ("a", "b"):
            st = svc.stats[name]
            assert len(st.queue_waits_s) == st.dispatched
            p50 = st.queue_wait_quantile_s(0.50)
            p95 = st.queue_wait_quantile_s(0.95)
            p99 = st.p99_queue_wait_s
            assert 0.0 <= p50 <= p95 <= p99 <= st.queue_wait_max_s + 1e-12
            # The estimator's extrema clamp to the true sample extrema.
            assert p99 <= max(st.queue_waits_s)

    def test_nan_before_first_dispatch(self):
        import math

        from repro.service.frontend import TenantStats

        st = TenantStats()
        assert math.isnan(st.p99_queue_wait_s)

    def test_single_dispatch_degenerate(self):
        from repro.service.frontend import TenantStats

        st = TenantStats()
        st.queue_waits_s.append(0.25)
        assert st.p99_queue_wait_s == 0.25

    def test_constant_waits(self):
        from repro.service.frontend import TenantStats

        st = TenantStats()
        st.queue_waits_s.extend([0.0] * 10)
        assert st.p99_queue_wait_s == 0.0
