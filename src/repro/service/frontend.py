"""The query-service frontend: tenants in, batch windows out.

:class:`QueryService` sits between clients and the engine.  Clients
:meth:`~QueryService.submit` queries under a tenant name and get back a
:class:`ServiceTicket`; :meth:`~QueryService.drain` runs the service
loop, which every iteration

1. **sheds** queued requests whose queue deadline has passed,
2. **waits** (advances all simulated clocks) if nothing has arrived yet,
3. **selects** up to ``batch_window`` requests by weighted-fair queueing
   — ranking per-tenant queue *heads* only, so one tenant's requests
   never reorder among themselves — and
4. **executes** them as one :class:`QueryScheduler` window, so
   cross-tenant batching (one plan book, semantic cache, server region
   caches) works exactly as it does for a single caller.

Everything runs on simulated time: admission, shedding, queue waits, and
per-request timeouts (forwarded into the executor's simulated deadlines)
are all functions of the deployment's :class:`SimClock`\\ s, never the
wall clock, so identical seeds and configs replay identical decisions.

**Write tenants.**  A tenant declared with ``kind="write"`` submits
ingest writes (:meth:`QueryService.submit_write`) instead of queries.
Writes ride the same admission control, queues, shedding, and dispatch
— the tenant weights arbitrate ingest against reads — and are applied
through a service-owned :class:`~repro.ingest.stream.IngestStream` (one
flushed epoch per write), *before* the same window's queries run.  See
docs/ingest.md.

**Weighted-fair dispatch (WFQ).**  Start-time fair queueing in the style
of SFQ: at admission a request is stamped with the virtual finish tag
``max(vtime, tenant's last tag) + 1/weight``; a window takes the queue
head with the smallest ``(finish tag, queue deadline, seq)`` — so among
fair-share-equivalent candidates the most urgent deadline goes first —
and advances ``vtime`` to the dispatched tag.  A tenant of weight *w*
receives a ~``w``-proportional share of dispatch slots whenever it has
queued work, and an idle tenant banks no credit (its next tag starts at
the current virtual time).  Plain arithmetic on stamped tags: identical
request sequences order identically on every run.

**Passthrough bit-identity.**  Under a passthrough config
(:meth:`ServiceConfig.is_passthrough`: one query tenant, no limits) only one
queue head is ever ranked, so the service performs *zero* clock charges
and forms exactly the windows :meth:`QueryScheduler.run` would: every
simulated result, latency, and engine metric is bit-identical to driving
the scheduler directly;
only ``pdc_service_*`` metrics differ.  tests/service/test_frontend.py
pins this.

Overload never hangs a request: every ticket terminates as ``done``
(possibly degraded or timed out, per the fault machinery's partial
results), ``failed`` (the per-query error, batch-isolated), ``shed``, or
``rejected`` — see docs/service.md.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Union

import numpy as np

from ..errors import PDCError
from ..ingest import IngestConfig, IngestStream, WriteResult, WriteSpec
from ..ingest.maintain import check_offset
from ..pdc.system import PDCSystem
from ..query.ast import QueryNode
from ..query.executor import BatchResult, QueryResult, QuerySpec
from ..query.scheduler import QueryScheduler
from .admission import ADMIT, REJECT_QUEUE, REJECT_RATE, AdmissionDecision, TokenBucket
from .config import ServiceConfig, Tenant

__all__ = ["QueryService", "ServiceTicket", "ServiceRequest", "TenantStats"]

#: Terminal ticket states (``queued`` is the only non-terminal one).
TERMINAL_STATES = ("done", "failed", "rejected", "shed")


@dataclass
class ServiceRequest:
    """One submitted query's journey through the service.

    Returned by :meth:`QueryService.submit` (the caller's *ticket*) and
    mutated in place as the service processes it.
    """

    #: Global admission sequence number (total submission order).
    seq: int
    tenant: Tenant
    #: A :class:`QuerySpec` (query tenants) or :class:`WriteSpec`
    #: (write tenants) — both classes queue, shed, and dispatch alike.
    spec: Union[QuerySpec, WriteSpec]
    #: Simulated instant the request arrived at the service.
    arrival_s: float
    #: Absolute simulated instant after which the request is shed instead
    #: of dispatched (``arrival + queue_deadline_s``); None = never.
    deadline_s: Optional[float] = None
    #: WFQ virtual finish tag (stamped at admission).
    finish_tag: float = 0.0
    #: "queued" | "done" | "failed" | "rejected" | "shed".
    status: str = "queued"
    #: Admission-rejection reason ("rate_limited" / "queue_full").
    reject_reason: str = ""
    result: Optional[Union[QueryResult, WriteResult]] = field(
        default=None, repr=False
    )
    error: Optional[Exception] = field(default=None, repr=False)
    #: Simulated instant the request entered a dispatch window.
    dispatch_s: Optional[float] = None
    #: Simulated seconds spent queued (``dispatch_s - arrival_s``).
    queue_wait_s: Optional[float] = None

    @property
    def finished(self) -> bool:
        return self.status in TERMINAL_STATES


#: Public alias: what callers hold while the service works.
ServiceTicket = ServiceRequest


def _wfq_rank(req: ServiceRequest) -> tuple:
    """Dispatch rank of a queue head: least finish tag, then the most
    urgent queue deadline (none sorts last), then admission order."""
    deadline = req.deadline_s if req.deadline_s is not None else math.inf
    return (req.finish_tag, deadline, req.seq)


@dataclass
class TenantStats:
    """Per-tenant SLO counters (simulated seconds; mirror of the
    ``pdc_service_*`` metrics, kept here so callers without a metrics
    registry still get accounting)."""

    submitted: int = 0
    admitted: int = 0
    rejected_rate: int = 0
    rejected_queue: int = 0
    shed: int = 0
    dispatched: int = 0
    done: int = 0
    failed: int = 0
    degraded: int = 0
    timed_out: int = 0
    queue_wait_total_s: float = 0.0
    queue_wait_max_s: float = 0.0
    service_total_s: float = 0.0
    #: Per-dispatch queue waits (simulated seconds), the distribution
    #: behind the percentile properties.  Mirrors the population of the
    #: ``pdc_service_queue_wait_sim_seconds`` histogram metric.
    queue_waits_s: List[float] = field(default_factory=list, repr=False)

    def queue_wait_quantile_s(self, q: float) -> float:
        """Queue-wait quantile over dispatched requests, estimated with
        the paper's mergeable power-of-two histogram (the same machinery
        the metrics layer uses).  NaN before the first dispatch."""
        if not self.queue_waits_s:
            return math.nan
        if len(self.queue_waits_s) == 1:
            return self.queue_waits_s[0]
        from ..histogram.mergeable import MergeableHistogram

        hist = MergeableHistogram.from_data(
            np.asarray(self.queue_waits_s, dtype=np.float64),
            n_bins=64,
            sample_fraction=1.0,
        )
        return hist.quantile(q)

    @property
    def p99_queue_wait_s(self) -> float:
        return self.queue_wait_quantile_s(0.99)


class QueryService:
    """Multi-tenant query-service frontend over one PDC deployment."""

    def __init__(self, system: PDCSystem, config: Optional[ServiceConfig] = None) -> None:
        self.system = system
        self.config = config if config is not None else ServiceConfig()
        self.scheduler = QueryScheduler(
            system,
            max_width=self.config.batch_window,
            use_selection_cache=self.config.use_selection_cache,
        )
        #: WFQ virtual time and each tenant's last stamped finish tag.
        self._vtime = 0.0
        self._last_finish: Dict[str, float] = {}
        self._queues: Dict[str, Deque[ServiceRequest]] = {
            t.name: deque() for t in self.config.tenants
        }
        self._buckets: Dict[str, TokenBucket] = {
            t.name: TokenBucket(t.rate_limit_qps, t.burst)
            for t in self.config.tenants
            if t.rate_limit_qps is not None
        }
        self.stats: Dict[str, TenantStats] = {
            t.name: TenantStats() for t in self.config.tenants
        }
        self._seq = 0
        self._closed = False
        self._ingest: Optional[IngestStream] = None
        self._declare_metrics()

    @property
    def ingest(self) -> IngestStream:
        """The service-owned ingest stream write tenants feed (lazily
        created from :attr:`ServiceConfig.ingest`)."""
        if self._ingest is None:
            cfg = self.config.ingest
            if cfg is not None and not isinstance(cfg, IngestConfig):
                raise PDCError(
                    "ServiceConfig.ingest must be an IngestConfig, got "
                    f"{type(cfg).__name__}"
                )
            self._ingest = IngestStream(self.system, cfg)
        return self._ingest

    # --------------------------------------------------------------- metrics
    def _declare_metrics(self) -> None:
        """Declare the ``pdc_service_*`` families; each labelled one is
        held as its :meth:`~repro.obs.metrics._Metric.handles`, so a tenant's
        child is created on its first event and looked up after that."""
        m = self.system.metrics
        self._m_requests = m.counter(
            "pdc_service_requests_total", "Requests submitted", ("tenant",)
        ).handles()
        self._m_admitted = m.counter(
            "pdc_service_admitted_total", "Requests admitted to a queue", ("tenant",)
        ).handles()
        self._m_rejected = m.counter(
            "pdc_service_rejected_total",
            "Requests rejected at admission",
            ("tenant", "reason"),
        ).handles()
        self._m_shed = m.counter(
            "pdc_service_shed_total",
            "Queued requests shed past their queue deadline",
            ("tenant",),
        ).handles()
        self._m_dispatched = m.counter(
            "pdc_service_dispatched_total",
            "Requests dispatched into batch windows",
            ("tenant",),
        ).handles()
        self._m_done = m.counter(
            "pdc_service_completed_total", "Requests completed", ("tenant",)
        ).handles()
        self._m_failed = m.counter(
            "pdc_service_failed_total", "Requests that raised per-query errors",
            ("tenant",),
        ).handles()
        self._m_degraded = m.counter(
            "pdc_service_degraded_total",
            "Completed requests with degraded (incomplete) results",
            ("tenant",),
        ).handles()
        self._m_timeout = m.counter(
            "pdc_service_timeout_total",
            "Completed requests that hit their simulated execution deadline",
            ("tenant",),
        ).handles()
        self._m_windows = m.counter(
            "pdc_service_windows_total", "Dispatch windows executed"
        )
        self._m_qwait = m.histogram(
            "pdc_service_queue_wait_sim_seconds",
            "Simulated queue wait per dispatched request",
            ("tenant",),
        ).handles()
        self._m_service = m.histogram(
            "pdc_service_service_sim_seconds",
            "Simulated service time per completed request",
            ("tenant",),
        ).handles()
        self._m_depth = m.gauge(
            "pdc_service_queue_depth", "Queued (undispatched) requests", ("tenant",)
        ).handles()

    # ------------------------------------------------------------------ time
    def _now(self) -> float:
        """The deployment's simulated frontier (a pure read — computing it
        never advances any clock, which the passthrough guarantee needs)."""
        return max(c.now for c in self.system.all_clocks())

    # ------------------------------------------------------------- admission
    def submit(
        self,
        tenant: str,
        query: Union[QueryNode, QuerySpec],
        *,
        timeout_s: Optional[float] = None,
        arrival_s: Optional[float] = None,
        **spec_kwargs,
    ) -> ServiceRequest:
        """Submit one query under ``tenant``; returns its ticket.

        ``arrival_s`` places the request at an explicit simulated arrival
        instant (open-loop workloads); omitted, the request arrives "now"
        (at the deployment's current simulated frontier).  ``timeout_s``
        overrides the tenant's default execution budget.  Remaining ``spec_kwargs``
        become :class:`QuerySpec` fields (``want_selection``,
        ``region_constraint``, ``strategy``).

        Admission control runs here, at the arrival instant: a rejected
        request's ticket comes back already terminal (``rejected``) with
        a reason, and never touches the engine.
        """
        if self._closed:
            raise PDCError("service is closed")
        ten = self.config.tenant(tenant)
        if ten.kind != "query":
            raise PDCError(
                f"tenant {tenant!r} is a write tenant; use submit_write()"
            )
        arrival = self._now() if arrival_s is None else float(arrival_s)
        eff_timeout = timeout_s
        if eff_timeout is None and isinstance(query, QuerySpec):
            eff_timeout = query.timeout_s
        if eff_timeout is None:
            eff_timeout = ten.default_timeout_s

        if isinstance(query, QuerySpec):
            spec = query
            if spec.timeout_s != eff_timeout:
                spec = replace(spec, timeout_s=eff_timeout)
        else:
            spec = QuerySpec(node=query, timeout_s=eff_timeout, **spec_kwargs)

        req = ServiceRequest(
            seq=self._seq,
            tenant=ten,
            spec=spec,
            arrival_s=arrival,
            deadline_s=(
                arrival + ten.queue_deadline_s
                if ten.queue_deadline_s is not None
                else None
            ),
        )
        return self._enqueue(req)

    def submit_write(
        self,
        tenant: str,
        object_name: str,
        values: np.ndarray,
        *,
        offset: Optional[int] = None,
        arrival_s: Optional[float] = None,
    ) -> ServiceRequest:
        """Submit one ingest write under a ``kind="write"`` tenant.

        ``offset=None`` appends at the object's tail; an int overwrites
        in place.  The write rides the same admission control, queues,
        and dispatch as queries — the tenant's weight is what arbitrates
        ingest against reads.  Within a dispatch window, writes apply
        *before* queries, so a window's queries see its writes (and the
        scheduler's semantic cache repairs itself through the ordinary
        invalidation hooks).
        """
        if self._closed:
            raise PDCError("service is closed")
        if offset is not None:
            check_offset(offset)
        ten = self.config.tenant(tenant)
        if ten.kind != "write":
            raise PDCError(
                f"tenant {tenant!r} is a query tenant; use submit()"
            )
        arrival = self._now() if arrival_s is None else float(arrival_s)
        spec = WriteSpec(
            object_name=object_name,
            values=np.asarray(values),
            offset=None if offset is None else int(offset),
        )
        req = ServiceRequest(
            seq=self._seq,
            tenant=ten,
            spec=spec,
            arrival_s=arrival,
            deadline_s=(
                arrival + ten.queue_deadline_s
                if ten.queue_deadline_s is not None
                else None
            ),
        )
        return self._enqueue(req)

    def _enqueue(self, req: ServiceRequest) -> ServiceRequest:
        """Common admission tail: run admission control at the arrival
        instant and either queue the request or terminalize it rejected."""
        ten = req.tenant
        arrival = req.arrival_s
        self._seq += 1
        st = self.stats[ten.name]
        st.submitted += 1
        self._m_requests[ten.name].inc()
        monitor = self.system.monitor
        if monitor is not None:
            monitor.on_submit(arrival, ten.name)

        decision = self._admit(req)
        if not decision.admitted:
            req.status = "rejected"
            req.reject_reason = decision.reason
            if decision.reason == "rate_limited":
                st.rejected_rate += 1
            else:
                st.rejected_queue += 1
            self._m_rejected[ten.name, decision.reason].inc()
            if monitor is not None:
                monitor.on_reject(arrival, ten.name, decision.reason)
            self.system.tracer.instant(
                f"service.reject:{ten.name}",
                self.system.client_clock,
                category="service",
                reason=decision.reason,
                seq=req.seq,
            )
            return req

        start = max(self._vtime, self._last_finish.get(ten.name, 0.0))
        req.finish_tag = self._last_finish[ten.name] = start + 1.0 / ten.weight
        self._queues[ten.name].append(req)
        st.admitted += 1
        self._m_admitted[ten.name].inc()
        self._m_depth[ten.name].set(len(self._queues[ten.name]))
        if monitor is not None:
            monitor.on_admit(arrival, ten.name, len(self._queues[ten.name]))
        if self.system.tracer.enabled:
            self.system.tracer.instant(
                f"service.admit:{ten.name}",
                self.system.client_clock,
                category="service",
                seq=req.seq,
            )
        return req

    def _admit(self, req: ServiceRequest) -> AdmissionDecision:
        ten = req.tenant
        bucket = self._buckets.get(ten.name)
        if bucket is not None and not bucket.try_take(req.arrival_s):
            return REJECT_RATE
        if (
            ten.queue_cap is not None
            and len(self._queues[ten.name]) >= ten.queue_cap
        ):
            return REJECT_QUEUE
        return ADMIT

    # -------------------------------------------------------------- dispatch
    def queued(self) -> int:
        """Total admitted-but-undispatched requests across tenants."""
        return sum(len(q) for q in self._queues.values())

    def drain(self) -> List[ServiceRequest]:
        """Run the service loop until every queue is empty.

        Returns the requests terminalized by this call (shed + executed),
        in processing order.  Every returned ticket is terminal; the loop
        cannot leave a request hanging — each iteration either sheds,
        dispatches, or advances simulated time to the next arrival.
        """
        processed: List[ServiceRequest] = []
        monitor = self.system.monitor
        while self.queued():
            now = self._now()
            if monitor is not None:
                monitor.on_tick(now)
            processed.extend(self._shed_expired(now))
            eligible = self._eligible_heads(now)
            if not eligible:
                if not self.queued():
                    break
                # Idle: nothing has arrived yet.  Advance the whole
                # deployment to the earliest queued arrival (a rendezvous,
                # like any barrier wait).
                t_next = min(
                    r.arrival_s for q in self._queues.values() for r in q
                )
                for c in self.system.all_clocks():
                    c.advance_to(t_next, "service_idle")
                continue
            window = self._select_window(eligible, now)
            processed.extend(self._execute_window(window, now))
        return processed

    def _shed_expired(self, now: float) -> List[ServiceRequest]:
        """Drop queued requests whose queue deadline has passed."""
        shed: List[ServiceRequest] = []
        monitor = self.system.monitor
        for name, q in self._queues.items():
            if not any(r.deadline_s is not None and now > r.deadline_s for r in q):
                continue
            kept: Deque[ServiceRequest] = deque()
            for r in q:
                if r.deadline_s is not None and now > r.deadline_s:
                    r.status = "shed"
                    r.queue_wait_s = now - r.arrival_s
                    self.stats[name].shed += 1
                    self._m_shed[name].inc()
                    if monitor is not None:
                        monitor.on_shed(now, name, r.queue_wait_s)
                    self.system.tracer.instant(
                        f"service.shed:{name}",
                        self.system.client_clock,
                        category="service",
                        seq=r.seq,
                        waited_s=r.queue_wait_s,
                    )
                    shed.append(r)
                else:
                    kept.append(r)
            self._queues[name] = kept
            self._m_depth[name].set(len(kept))
        return shed

    def _eligible_heads(self, now: float) -> List[ServiceRequest]:
        """Dispatch candidates whose arrival instant has been reached: the
        per-tenant queue *heads* only, so a tenant's own requests never
        reorder."""
        return [
            q[0] for q in self._queues.values() if q and q[0].arrival_s <= now
        ]

    def _select_window(
        self, heads: List[ServiceRequest], now: float
    ) -> List[ServiceRequest]:
        """Fill one batch window by repeatedly taking the eligible queue
        head of least ``(finish tag, queue deadline, seq)``.  Re-ranking
        after every pick lets the next request of the picked tenant
        compete immediately, which is what makes WFQ interleave within a
        single window.  Virtual time tracks the frontier of dispatched
        service, so a tenant that went idle cannot bank credit."""
        window: List[ServiceRequest] = []
        while len(window) < self.config.batch_window and heads:
            best = min(heads, key=_wfq_rank)
            self._queues[best.tenant.name].popleft()
            self._vtime = max(self._vtime, best.finish_tag)
            window.append(best)
            heads = self._eligible_heads(now)
        return window

    def _execute_window(
        self, window: List[ServiceRequest], now: float
    ) -> List[ServiceRequest]:
        tracer = self.system.tracer
        monitor = self.system.monitor
        for r in window:
            r.dispatch_s = now
            r.queue_wait_s = now - r.arrival_s
            name = r.tenant.name
            st = self.stats[name]
            st.dispatched += 1
            st.queue_wait_total_s += r.queue_wait_s
            st.queue_wait_max_s = max(st.queue_wait_max_s, r.queue_wait_s)
            st.queue_waits_s.append(r.queue_wait_s)
            self._m_dispatched[name].inc()
            self._m_qwait[name].observe(r.queue_wait_s)
            self._m_depth[name].set(len(self._queues[name]))
            if monitor is not None:
                monitor.on_dispatch(
                    now, name, r.queue_wait_s, len(self._queues[name])
                )
            if tracer.enabled:
                # The queue span covers arrival → dispatch: open it now
                # and backdate its start to the arrival instant.
                handle = tracer.span(
                    f"service.queue:{name}",
                    self.system.client_clock,
                    category="service",
                    seq=r.seq,
                    tenant=name,
                )
                handle.span.start_s = r.arrival_s
                handle.__exit__(None, None, None)

        writes = [r for r in window if isinstance(r.spec, WriteSpec)]
        if not writes:
            # Query-only window: exactly the legacy path (the passthrough
            # bit-identity guarantee lives here — zero extra clock work).
            batch = self._dispatch(window)
            self._m_windows.inc()
            self._account_window(window, batch)
            return window

        # Mixed/write window: apply writes first (in window order), then
        # run the remaining queries as one batch, so the
        # window's queries read their tenants' admitted writes.
        reads = [r for r in window if not isinstance(r.spec, WriteSpec)]
        wbatch = self._apply_writes(writes)
        if reads:
            batch = self._dispatch(reads)
        self._m_windows.inc()
        self._account_window(writes, wbatch)
        if reads:
            self._account_window(reads, batch)
        return window

    def _dispatch(self, reqs: List[ServiceRequest]) -> BatchResult:
        """Run the queries of ``reqs`` as one scheduler window inside a
        ``service.dispatch`` span."""
        with self.system.tracer.span(
            "service.dispatch",
            self.system.client_clock,
            category="service",
            width=len(reqs),
            tenants=sorted({r.tenant.name for r in reqs}),
        ):
            return self.scheduler.execute_window([r.spec for r in reqs])

    def _apply_writes(self, writes: List[ServiceRequest]) -> BatchResult:
        """Apply a window's writes through the service's ingest stream,
        one flushed epoch per write so each is individually timed
        (barrier to barrier) and individually error-isolated.  Returns a
        :class:`BatchResult` shim so :meth:`_account_window` treats
        :class:`WriteResult`\\ s exactly like query results."""
        stream = self.ingest
        sysm = self.system
        results: List[Optional[WriteResult]] = []
        errors: Dict[int, Exception] = {}
        for j, r in enumerate(writes):
            spec = r.spec
            try:
                t0 = sysm.sync_clocks()
                if spec.offset is None:
                    stream.append(spec.object_name, spec.values, t_s=t0)
                else:
                    stream.update(
                        spec.object_name, spec.offset, spec.values, t_s=t0
                    )
                epoch = stream.flush()
                t1 = sysm.sync_clocks()
                assert epoch is not None  # one op was buffered
                results.append(
                    WriteResult(
                        object_name=spec.object_name,
                        n_elements=int(spec.values.size),
                        regions=list(epoch.regions.get(spec.object_name, [])),
                        epoch=epoch.epoch,
                        elapsed_s=t1 - t0,
                    )
                )
            except Exception as exc:  # per-write isolation, like queries
                errors[j] = exc
                results.append(None)
        return BatchResult(
            results=results, width=len(writes), errors=errors
        )

    def _account_window(
        self, window: List[ServiceRequest], batch: BatchResult
    ) -> None:
        monitor = self.system.monitor
        # Completions land at the post-execution simulated frontier (a
        # pure read, like every monitor instant).
        t_done = self._now() if monitor is not None else 0.0
        for i, r in enumerate(window):
            name = r.tenant.name
            st = self.stats[name]
            err = batch.errors.get(i)
            if err is not None:
                r.status = "failed"
                r.error = err
                st.failed += 1
                self._m_failed[name].inc()
                if monitor is not None:
                    monitor.on_complete(
                        t_done, name, "failed", r.queue_wait_s, 0.0
                    )
                continue
            result = batch.results[i]
            r.status = "done"
            r.result = result
            st.done += 1
            st.service_total_s += result.elapsed_s
            self._m_done[name].inc()
            self._m_service[name].observe(result.elapsed_s)
            if not result.complete:
                st.degraded += 1
                self._m_degraded[name].inc()
            if result.timed_out:
                st.timed_out += 1
                self._m_timeout[name].inc()
            if monitor is not None:
                monitor.on_complete(
                    t_done,
                    name,
                    "done",
                    r.queue_wait_s,
                    result.elapsed_s,
                    degraded=not result.complete,
                    timed_out=result.timed_out,
                )

    # ----------------------------------------------------------- convenience
    def run(
        self,
        tenant: str,
        queries: List[Union[QueryNode, QuerySpec]],
        **submit_kwargs,
    ) -> List[QueryResult]:
        """Submit ``queries`` under one tenant, drain, and return results
        in submission order — the service-side twin of
        :meth:`QueryScheduler.run`.  Re-raises the first per-query error;
        a rejected or shed request raises :class:`PDCError`."""
        tickets = [self.submit(tenant, q, **submit_kwargs) for q in queries]
        self.drain()
        results: List[QueryResult] = []
        for t in tickets:
            if t.status == "failed":
                assert t.error is not None
                raise t.error
            if t.status != "done":
                raise PDCError(
                    f"request {t.seq} not served: {t.status}"
                    + (f" ({t.reject_reason})" if t.reject_reason else "")
                )
            assert t.result is not None
            results.append(t.result)
        return results

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Drain outstanding work and release the scheduler."""
        if self._closed:
            return
        self.drain()
        self.scheduler.close()
        self._closed = True

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
