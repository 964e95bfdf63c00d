"""The deterministic elastic-scaling scenario shared by the CLI demo
(``python -m repro cluster``) and the regression micro-suite.

One open-loop arrival stream in two phases: a light warm-up at a rate a
small fleet absorbs comfortably, then the offered load doubles and stays
doubled.  The service monitor's queue-wait series breach the autoscaler's
p99 target, the fleet grows (each step a copy-then-commit region
migration charged in simulated time), and the tail queue wait recovers —
all on simulated clocks, so two same-seed runs produce bit-identical
tickets, decisions, and fingerprints.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = ["ClusterRun", "demo_cluster_slos", "demo_cluster_run"]


@dataclass
class ClusterRun:
    """Everything the elastic scenario produced."""

    system: object
    service: object
    monitor: object
    manager: object
    autoscaler: object
    tickets: List[object]
    #: Simulated end of the run (latest clock after drain).
    t_end: float
    #: Simulated instant the surge phase begins (first doubled arrival).
    t_surge: float
    #: Fleet sizes: before the run, and live at the end.
    servers_before: int = 0
    servers_after: int = 0
    #: Tail queue waits (simulated seconds): the light phase, the surge
    #: before the last scale-out landed, and the surge after it.
    p99_pre_s: float = math.nan
    p99_peak_s: float = math.nan
    p99_recovered_s: float = math.nan
    alerts: List[object] = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        """The acceptance claim: after the fleet grew, the surge-phase
        tail queue wait sits within 2x the pre-surge tail."""
        if math.isnan(self.p99_pre_s) or math.isnan(self.p99_recovered_s):
            return False
        return self.p99_recovered_s <= 2.0 * max(self.p99_pre_s, 1e-9)

    def fingerprint(self) -> str:
        """SHA-256 over the membership event stream, the scaling decision
        stream, and every ticket's terminal state — the whole elastic
        run's determinism in one digest."""
        h = hashlib.sha256()
        h.update(self.system.membership.fingerprint().encode())
        h.update(self.autoscaler.fingerprint().encode())
        h.update(self.monitor.fingerprint().encode())
        for t in self.tickets:
            h.update(
                f"{t.status}:{t.queue_wait_s!r}:{getattr(t.result, 'nhits', None)}".encode()
            )
        h.update(repr(self.t_end).encode())
        return h.hexdigest()

    def render(self) -> str:
        lines = [
            f"elastic run: {len(self.tickets)} requests, "
            f"{self.servers_before} -> {self.servers_after} servers, "
            f"{len(self.autoscaler.decisions)} scaling decisions, "
            f"{self.t_end * 1e3:.3f} simulated ms",
            f"  p99 queue wait  pre-surge {self.p99_pre_s * 1e3:.3f} ms | "
            f"surge peak {self.p99_peak_s * 1e3:.3f} ms | "
            f"post-scale {self.p99_recovered_s * 1e3:.3f} ms  "
            f"({'recovered' if self.recovered else 'NOT recovered'})",
        ]
        for d in self.autoscaler.decisions:
            lines.append(
                f"  {d.t_s * 1e3:9.3f} ms  {d.action:<9} +{d.amount} "
                f"({d.n_servers_before} -> {d.n_servers_after})  {d.reason}"
            )
        for rec in self.manager.to_records():
            lines.append(
                f"  {rec['t_begin'] * 1e3:9.3f} ms  migration "
                f"{rec['status']:<9} {rec['n_moves']} moves, "
                f"{rec['moved_vbytes']:.0f} virtual bytes, "
                f"{(rec['t_end'] - rec['t_begin']) * 1e3:.3f} ms"
            )
        return "\n".join(lines)


def demo_cluster_slos(
    fast_window_s: float = 0.008, slow_window_s: float = 0.04
) -> Tuple[object, ...]:
    """The elastic scenario's SLOs: the steady tenant's tail wait plus the
    migration-duration SLI the rebalancer feeds."""
    from ..obs.slo import SLO

    return (
        SLO(
            name="steady-wait",
            tenant="steady",
            sli="queue_wait",
            objective=0.95,
            threshold_s=0.004,
            fast_window_s=fast_window_s,
            slow_window_s=slow_window_s,
            fast_burn=5.0,
            slow_burn=1.0,
        ),
        SLO(
            name="migration-time",
            tenant="cluster",
            sli="migration",
            objective=0.90,
            threshold_s=0.05,
            fast_window_s=fast_window_s,
            slow_window_s=slow_window_s,
            fast_burn=5.0,
            slow_burn=1.0,
        ),
    )


def demo_cluster_run(
    seed: int = 1234,
    requests: int = 160,
    n_servers: int = 2,
    max_servers: int = 8,
    base_rate_qps: float = 170.0,
    surge_factor: float = 2.0,
    autoscaler_config=None,
    scrape_interval_s: Optional[float] = 0.002,
) -> ClusterRun:
    """Run the elastic load-doubling scenario and return its artifacts.

    The first third of ``requests`` arrives at ``base_rate_qps`` (the
    small fleet keeps up); the rest arrives at ``surge_factor`` times
    that rate, sustained to the end.  The autoscaler grows the fleet off
    the monitor's queue-wait p99; recovery is judged on the surge
    arrivals dispatched after the last scale-out committed.
    """
    import numpy as np

    from ..obs.metrics import MetricsRegistry
    from ..obs.monitor import ServiceMonitor
    from ..pdc import PDCConfig, PDCSystem
    from ..query.ast import Condition
    from ..service import QueryService, ServiceConfig, Tenant
    from ..types import PDCType, QueryOp
    from .autoscale import Autoscaler, AutoscalerConfig
    from .rebalance import ClusterManager

    rng = np.random.default_rng(seed)
    # An isolated registry: the scrape cadence records counter series, so
    # sharing the process-wide registry would tie the sample count to
    # whatever else ran in this process.
    # Scan-dominated sizing: ``virtual_scale`` blows the 16K-element
    # payload up to a multi-megabyte virtual object, so per-query service
    # time is mostly parallel region scanning — the capacity that
    # actually grows when the autoscaler adds servers (128 regions give
    # every fleet size up to ``max_servers`` an even share).
    system = PDCSystem(
        PDCConfig(
            n_servers=n_servers,
            region_size_bytes=1 << 17,
            virtual_scale=256.0,
        ),
        metrics=MetricsRegistry(),
    )
    n = 1 << 14
    e = rng.gamma(2.0, 0.7, n).astype(np.float32)
    system.create_object("energy", e)

    monitor = ServiceMonitor(
        slos=demo_cluster_slos(),
        registry=system.metrics,
        scrape_interval_s=scrape_interval_s,
    )
    system.set_monitor(monitor)

    manager = ClusterManager(system)
    cfg = autoscaler_config or AutoscalerConfig(
        min_servers=n_servers,
        max_servers=max_servers,
        target_p99_wait_s=0.010,
        low_p99_wait_s=0.002,
        window_s=0.02,
        evaluate_interval_s=0.002,
        breach_ticks=2,
        idle_ticks=16,
        cooldown_s=0.015,
        step=2,
    )
    autoscaler = Autoscaler(manager, monitor, cfg)

    svc = QueryService(
        system,
        ServiceConfig(
            tenants=(Tenant("steady"),),
            policy="fifo",
            batch_window=4,
            autoscaler=autoscaler,
        ),
    )

    # Warm the region caches outside the measured workload: the very
    # first touch pays the full (virtually scaled) PFS read, a ~100
    # simulated-ms transient that would otherwise drown the light phase's
    # queue statistics.
    from ..query.executor import QueryEngine

    QueryEngine(system).execute(
        Condition("energy", QueryOp.GT, PDCType.FLOAT, 0.0)
    )

    servers_before = len(system.membership.serving_ids)
    t = max(c.now for c in system.all_clocks())
    n_light = requests // 3
    n_heavy = requests - n_light
    tickets: List[object] = []
    t_surge = math.nan
    for count, rate in ((n_light, base_rate_qps),
                        (n_heavy, base_rate_qps * surge_factor)):
        first = True
        for _ in range(count):
            t += float(rng.exponential(1.0 / rate))
            if first and count is n_heavy and math.isnan(t_surge):
                t_surge = t
            first = False
            q = Condition(
                "energy", QueryOp.GT, PDCType.FLOAT,
                float(np.float32(rng.uniform(0.5, 3.0))),
            )
            tickets.append(svc.submit("steady", q, arrival_s=t))
    svc.drain()
    svc.close()
    t_end = max(c.now for c in system.all_clocks())
    monitor.on_tick(t_end)

    run = ClusterRun(
        system=system,
        service=svc,
        monitor=monitor,
        manager=manager,
        autoscaler=autoscaler,
        tickets=tickets,
        t_end=t_end,
        t_surge=t_surge,
        servers_before=servers_before,
        servers_after=len(system.membership.serving_ids),
        alerts=list(monitor.alerts),
    )

    def p99(waits: List[float]) -> float:
        if not waits:
            return math.nan
        return float(np.percentile(np.asarray(waits, dtype=np.float64), 99.0))

    outs = [d.t_s for d in autoscaler.decisions if d.action == "scale_out"]
    t_scaled = max(outs) if outs else math.inf
    pre, peak, rec = [], [], []
    for tk in tickets:
        if tk.queue_wait_s is None or tk.status not in ("done", "shed"):
            continue
        if tk.arrival_s < t_surge:
            pre.append(tk.queue_wait_s)
        elif tk.arrival_s <= t_scaled:
            peak.append(tk.queue_wait_s)
        else:
            rec.append(tk.queue_wait_s)
    run.p99_pre_s = p99(pre)
    run.p99_peak_s = p99(peak)
    run.p99_recovered_s = p99(rec)
    return run
