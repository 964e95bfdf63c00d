"""Continuous telemetry for a PDC deployment: the service monitor.

:class:`ServiceMonitor` ties the two telemetry primitives together and
hangs them off the event points of a running deployment:

* every :class:`~repro.service.frontend.QueryService` admission /
  shed / dispatch / completion, every
  :class:`~repro.query.scheduler.QueryScheduler` batch window, and every
  :class:`~repro.pdc.server.PDCServer` region read lands as a sample in
  a :class:`~repro.obs.timeseries.TimeSeriesRecorder` (ring-buffered,
  windowed aggregates on simulated time);
* terminal request outcomes additionally feed an
  :class:`~repro.obs.slo.SLOMonitor`, whose multi-window burn-rate
  evaluation emits the deterministic :class:`~repro.obs.slo.Alert`
  stream.

Install with :meth:`PDCSystem.set_monitor`; a system without one holds
``None``, and every hook site tests that before building its arguments,
so a deployment without a monitor costs one attribute read per site and
is bit-identical to one built before this module existed.  An installed
monitor only ever *reads* simulated clocks (each hook receives the
instant explicitly), so even enabled monitoring never changes results,
clocks, or engine metrics; tests pin both properties.

The shared deterministic overload scenario that drives it (CLI, micro-suite
pins, alert-determinism tests) is :func:`repro.scenarios.demo_monitor_run`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from .metrics import Handles
from .slo import SLO, Alert, SLOMonitor
from .timeseries import TimeSeriesRecorder, WindowStats

__all__ = [
    "MONITOR_WINDOW_S",
    "ServiceMonitor",
]


#: Width of the monitor's windowed views (status table, tenant windows,
#: the OpenMetrics ``:window_*`` gauges), in simulated seconds.
MONITOR_WINDOW_S = 0.05


class ServiceMonitor:
    """Recording monitor: time-series samples + SLO burn-rate alerts.

    ``registry`` (optional) is scraped into counter series every
    ``scrape_interval_s`` simulated seconds, driven by the event stream
    itself — no wall clock, no timers, fully deterministic.
    """

    def __init__(
        self,
        slos: Tuple[SLO, ...] = (),
        recorder: Optional[TimeSeriesRecorder] = None,
        registry=None,
        scrape_interval_s: Optional[float] = None,
    ) -> None:
        # ``not 0 < x < inf`` refuses NaN too.
        if scrape_interval_s is not None and not 0.0 < scrape_interval_s < math.inf:
            raise ValueError("scrape_interval_s must be positive and finite (or None)")
        self.recorder = recorder if recorder is not None else TimeSeriesRecorder()
        self.slo = SLOMonitor(tuple(slos))
        self.registry = registry
        self.scrape_interval_s = scrape_interval_s
        self._next_scrape_s: Optional[float] = None
        # Each hook's series, declared on its first sample and looked up
        # after that (the recorder is fixed for the monitor's life).
        rec = self.recorder
        self._outcomes = rec.handles("pdc_service_outcomes", "event", "tenant", "outcome")
        self._queue_wait = rec.handles("pdc_service_queue_wait_sim_seconds", "event", "tenant")
        self._queue_depth = rec.handles("pdc_service_queue_depth", "gauge", "tenant")
        self._service = rec.handles("pdc_service_service_sim_seconds", "event", "tenant")
        self._ingest = Handles(lambda key: rec.declare(key[0], "event", tenant=key[1]))
        self._maintenance = rec.handles("pdc_ingest_maintenance", "event", "tenant", "action")
        self._windows = Handles(lambda name: rec.declare(name, "event"))
        self._reads = Handles(lambda key: rec.declare(
            "pdc_server_read_bytes", "event", server=f"server{key[0]}", result=key[1]
        ))

    # ------------------------------------------------------- service hooks
    #
    # Submission-side hooks (submit/reject/admit) stamp the request's
    # *arrival* instant, which in an open-loop workload can lie ahead of
    # the drain loop's frontier.  They therefore only touch event series
    # that are fed exclusively from the submission path (arrivals are
    # nondecreasing across submit calls), never the drain-side series or
    # the scrape cadence — per-series sample order stays monotonic.
    def on_submit(self, t_s: float, tenant: str) -> None:
        self._outcomes[tenant, "submitted"].append(t_s, 1.0)

    def on_reject(self, t_s: float, tenant: str, reason: str) -> None:
        self._outcomes[tenant, "rejected"].append(t_s, 1.0)

    def on_admit(self, t_s: float, tenant: str, depth: int) -> None:
        self._outcomes[tenant, "admitted"].append(t_s, 1.0)

    def on_shed(self, t_s: float, tenant: str, waited_s: float) -> None:
        self._outcomes[tenant, "shed"].append(t_s, 1.0)
        self.slo.observe(t_s, tenant, "shed", queue_wait_s=waited_s)

    def on_dispatch(
        self, t_s: float, tenant: str, queue_wait_s: float, depth: int
    ) -> None:
        self._queue_wait[tenant].append(t_s, queue_wait_s)
        self._queue_depth[tenant].append(t_s, float(depth))

    def on_complete(
        self,
        t_s: float,
        tenant: str,
        status: str,
        queue_wait_s: float,
        service_s: float,
        degraded: bool = False,
        timed_out: bool = False,
    ) -> None:
        outcomes = self._outcomes
        outcomes[tenant, status].append(t_s, 1.0)
        if status == "done":
            self._service[tenant].append(t_s, service_s)
        if degraded:
            outcomes[tenant, "degraded"].append(t_s, 1.0)
        if timed_out:
            outcomes[tenant, "timeout"].append(t_s, 1.0)
        self.slo.observe(
            t_s, tenant, status, queue_wait_s=queue_wait_s, timed_out=timed_out
        )

    # ----------------------------------------------------- scheduler hooks
    def on_window(self, t_s: float, width: int, elapsed_s: float) -> None:
        self._windows["pdc_window_width"].append(t_s, float(width))
        self._windows["pdc_window_sim_seconds"].append(t_s, elapsed_s)
        self._maybe_scrape(t_s)

    # -------------------------------------------------------- server hooks
    def on_region_read(
        self, server_id: int, reads: Sequence[Tuple[float, float, str]]
    ) -> None:
        """One server share's sampled region accesses, ``(t_s, nbytes,
        result)`` in time order: each ``(server, result)`` series is
        resolved once and appended to in bulk.  ``result="hit"`` samples are
        warm-cache accesses (served from memory, no PFS read); "read"
        samples actually paid storage time.  Both matter for the
        utilization view."""
        points = [(t_s, nbytes) for t_s, nbytes, r in reads if r == "read"]
        if points:
            self._reads[server_id, "read"].extend(points)
        if len(points) < len(reads):  # warm hits are the rare case
            points = [(t_s, nbytes) for t_s, nbytes, r in reads if r == "hit"]
            if points:
                self._reads[server_id, "hit"].extend(points)

    # -------------------------------------------------------- ingest hooks
    def on_ingest_epoch(
        self,
        t_s: float,
        tenant: str,
        epoch: int,
        n_ops: int,
        n_elements: int,
        lag_s: float,
        hist_merges: int = 0,
        hist_rebuilds: int = 0,
        compactions: int = 0,
    ) -> None:
        """One applied ingest epoch: rate series plus the ingest-lag SLI
        (an epoch whose apply lag exceeds the SLO threshold is a bad
        event)."""
        ingest, maintenance = self._ingest, self._maintenance
        ingest["pdc_ingest_ops", tenant].append(t_s, float(n_ops))
        ingest["pdc_ingest_elements", tenant].append(t_s, float(n_elements))
        ingest["pdc_ingest_lag_sim_seconds", tenant].append(t_s, float(lag_s))
        if hist_merges:
            maintenance[tenant, "merge"].append(t_s, float(hist_merges))
        if hist_rebuilds:
            maintenance[tenant, "rebuild"].append(t_s, float(hist_rebuilds))
        if compactions:
            maintenance[tenant, "compact"].append(t_s, float(compactions))
        self.slo.observe(t_s, tenant, "ingest_epoch", queue_wait_s=lag_s)
        self._maybe_scrape(t_s)

    def on_compaction(
        self, t_s: float, object_name: str, region_id: int, delta_elements: int
    ) -> None:
        """One background index compaction (delta segments folded in)."""
        self.recorder.observe(
            "pdc_compaction_delta_elements", t_s, float(delta_elements),
            object=object_name,
        )

    # ------------------------------------------------------- cluster hook
    #
    # A membership event is stamped at the clock frontier (the latest of
    # every clock when ``fail_server`` / ``recover_server`` runs), which
    # can run *ahead* of the drain loop's dispatch frontier.  Like the
    # submission-side hooks above, it therefore only touches series fed
    # exclusively from the cluster path and never drives the scrape
    # cadence — otherwise a scrape at a crash's frontier would poison
    # drain-fed series (queue depth is both a registry gauge and a
    # dispatch-hook series) with a timestamp the next dispatch sample
    # would then precede.
    def on_membership(
        self, t_s: float, server_id: int, kind: str, n_serving: int
    ) -> None:
        """One membership transition (crash or recover) plus the fleet
        gauges it implies."""
        self.recorder.record(
            "pdc_cluster_membership_events", t_s, 1.0, kind="event",
            # The transition kind is a label legitimately named like the
            # series kind parameter, hence the dict form (renamed "event"
            # to keep exports unambiguous).
            labels={"server": f"server{server_id}", "event": kind},
        )
        self.recorder.record(
            "pdc_cluster_serving_servers", t_s, float(n_serving)
        )

    # ---------------------------------------------------------------- time
    def on_tick(self, t_s: float) -> None:
        """Service-loop heartbeat: re-evaluates SLOs so alerts can clear
        even when no new terminal events arrive."""
        self.slo.evaluate(t_s)
        self._maybe_scrape(t_s)

    def _maybe_scrape(self, t_s: float) -> None:
        if self.registry is None or self.scrape_interval_s is None:
            return
        if self._next_scrape_s is None:
            self._next_scrape_s = t_s  # first event starts the cadence
        while t_s >= self._next_scrape_s:
            self.recorder.scrape(self.registry, t_s)
            self._next_scrape_s += self.scrape_interval_s

    # ------------------------------------------------------------- queries
    @property
    def alerts(self) -> List[Alert]:
        return self.slo.alerts

    def fingerprint(self) -> str:
        """The alert stream's deterministic fingerprint."""
        return self.slo.fingerprint()

    def tenant_window(
        self,
        tenant: str,
        t_end: Optional[float] = None,
        width_s: Optional[float] = None,
    ) -> Dict[str, WindowStats]:
        """Windowed per-tenant view at ``t_end`` (default: latest sample):
        queue wait distribution, completion/shed rates, queue depth."""
        t = self.recorder.t_latest if t_end is None else t_end
        w = MONITOR_WINDOW_S if width_s is None else width_s
        out = {
            "queue_wait": self.recorder.window(
                "pdc_service_queue_wait_sim_seconds", t, w, tenant=tenant
            ),
            "queue_depth": self.recorder.window(
                "pdc_service_queue_depth", t, w, tenant=tenant
            ),
        }
        for outcome in ("submitted", "done", "shed", "rejected", "failed"):
            out[outcome] = self.recorder.window(
                "pdc_service_outcomes", t, w, tenant=tenant, outcome=outcome
            )
        return out

    def render_status(
        self, t_end: Optional[float] = None, width_s: Optional[float] = None
    ) -> str:
        """One status table: per-SLO burn rates + per-tenant window stats
        — what ``python -m repro monitor`` prints."""
        t = self.recorder.t_latest if t_end is None else t_end
        w = MONITOR_WINDOW_S if width_s is None else width_s
        lines = [
            f"monitor status @ t={t * 1e3:.3f} simulated ms "
            f"(window {w * 1e3:.1f} ms)"
        ]
        lines.append(
            f"  {'slo':<16} {'tenant':<10} {'sli':<10} {'burn_fast':>9} "
            f"{'burn_slow':>9} {'budget':>7}  state"
        )
        for st in self.slo.states:
            state = []
            if st.firing_fast:
                state.append("FAST-BURN")
            if st.firing_slow:
                state.append("SLOW-BURN")
            lines.append(
                f"  {st.slo.name:<16} {st.slo.tenant:<10} {st.slo.sli:<10} "
                f"{st.burn_fast:>9.2f} {st.burn_slow:>9.2f} "
                f"{st.budget_used * 100:>6.1f}%  {'+'.join(state) or 'ok'}"
            )
        tenants = sorted(
            {
                s.labels["tenant"]
                for s in self.recorder.all_series()
                if "tenant" in s.labels
            }
        )
        if tenants:
            lines.append(
                f"  {'tenant':<10} {'req/s':>8} {'done/s':>8} {'shed/s':>8} "
                f"{'p50 wait ms':>12} {'p95 wait ms':>12} {'p99 wait ms':>12}"
            )
            for tenant in tenants:
                tw = self.tenant_window(tenant, t, w)
                qw = tw["queue_wait"]
                lines.append(
                    f"  {tenant:<10} {tw['submitted'].rate:>8.0f} "
                    f"{tw['done'].rate:>8.0f} {tw['shed'].rate:>8.0f} "
                    f"{_ms(qw.p50):>12} {_ms(qw.p95):>12} {_ms(qw.p99):>12}"
                )
        return "\n".join(lines)


def _ms(v: float) -> str:
    return "-" if v != v else f"{v * 1e3:.3f}"  # NaN-safe
