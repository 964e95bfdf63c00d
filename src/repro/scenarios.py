"""Scenario drivers: the demo deployment and the seeded open-loop runs.

The mechanism modules (service, monitor, cluster) know nothing about any
particular workload; this module is the one place that does.  It owns

* :func:`demo_deployment` — the small two-object system behind every CLI
  subcommand and the bench-regression micro-suite;
* :func:`arrivals` — the one seeded open-loop arrival stream;
* the three scenarios built on both: :func:`demo_serve_run` (multi-tenant
  fair share), :func:`demo_monitor_run` (overload → SLO burn-rate alerts
  fire and clear) and :func:`demo_cluster_run` (load doubles → the
  autoscaler grows the fleet → tail latency recovers), with their SLO
  sets and run records.

Everything runs on simulated clocks from a caller-supplied seed, so two
same-seed runs produce bit-identical tickets, alerts and fingerprints —
which is what lets the CLI (``python -m repro serve|monitor|cluster``),
the micro-suite pins and the determinism tests share one definition.
Imported by those three and never by ``repro/__init__``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .cluster.autoscale import Autoscaler, AutoscalerConfig
from .cluster.rebalance import ClusterManager
from .obs.metrics import MetricsRegistry
from .obs.monitor import ServiceMonitor
from .obs.slo import SLO, Alert
from .pdc import PDCConfig, PDCSystem
from .query.ast import Condition, combine_and
from .query.executor import QueryEngine
from .service import QueryService, ServiceConfig, Tenant
from .types import PDCType, QueryOp

__all__ = [
    "demo_deployment",
    "arrivals",
    "MonitorRun",
    "ClusterRun",
    "demo_slos",
    "demo_cluster_slos",
    "demo_serve_run",
    "demo_monitor_run",
    "demo_cluster_run",
]


def demo_deployment(metrics=None):
    """The small two-object deployment shared by selftest/trace/metrics
    and the micro-suite: an indexed, replica-backed 4-server system plus
    the demo condition tree and its ground-truth hit count."""
    rng = np.random.default_rng(0)
    system = PDCSystem(
        PDCConfig(n_servers=4, region_size_bytes=1 << 13), metrics=metrics
    )
    n = 1 << 14
    e = rng.gamma(2.0, 0.7, n).astype(np.float32)
    x = (rng.random(n) * 300).astype(np.float32)
    system.create_object("energy", e)
    system.create_object("x", x)
    system.build_index("energy")
    system.build_index("x")
    system.build_sorted_replica("energy", ["x"])

    node = combine_and(
        Condition("energy", QueryOp.GT, PDCType.FLOAT, 2.0),
        Condition("x", QueryOp.LT, PDCType.FLOAT, 150.0),
    )
    truth = int(((e > 2.0) & (x < 150.0)).sum())
    return system, node, truth


def arrivals(
    rng: np.random.Generator,
    t0: float,
    phases: Sequence[Tuple[int, float]],
    choose_tenant: Callable[[np.random.Generator, int], str],
) -> Iterator[Tuple[int, float, str, Condition]]:
    """Seeded open-loop (Poisson) arrivals of ``energy > threshold`` queries.

    ``phases`` is a sequence of ``(count, aggregate rate in queries per
    simulated second)``; ``choose_tenant(rng, phase)`` names each request's
    tenant.  Per request the draws are, in this order, the exponential
    inter-arrival gap, whatever the chooser draws, and the uniform
    threshold — the order every pin and fingerprint was recorded under.
    Yields ``(phase, arrival_s, tenant, query)``.
    """
    t = t0
    for phase, (count, rate) in enumerate(phases):
        for _ in range(count):
            t += float(rng.exponential(1.0 / rate))
            tenant = choose_tenant(rng, phase)
            threshold = float(np.float32(rng.uniform(0.5, 3.0)))
            yield phase, t, tenant, Condition(
                "energy", QueryOp.GT, PDCType.FLOAT, threshold
            )


def _frontier(system: PDCSystem) -> float:
    return max(c.now for c in system.all_clocks())


def _serve(svc: QueryService, stream) -> List[object]:
    """Submit a whole arrival stream, then drain and close the service."""
    tickets = [svc.submit(tenant, q, arrival_s=t) for _, t, tenant, q in stream]
    svc.drain()
    svc.close()
    return tickets


@dataclass
class MonitorRun:
    """Everything a service scenario produced."""

    system: object
    service: object
    monitor: Optional[ServiceMonitor]
    tickets: List[object]
    #: Simulated end of the run (latest clock after drain).
    t_end: float
    alerts: List[Alert] = field(default_factory=list)


# ------------------------------------------------------------------- serve
def demo_serve_run(
    seed: int = 1234,
    requests: int = 60,
    rate_qps: float = 400.0,
    policy: str = "wfq",
    batch_window: int = 4,
) -> MonitorRun:
    """Multi-tenant fair-share scenario: one steady-rate arrival stream,
    each request from a uniformly drawn tenant, against three tenants
    with different weights, deadlines and rate limits."""
    system, _, _ = demo_deployment()
    cfg = ServiceConfig(
        tenants=(
            Tenant("batch", weight=1.0, queue_deadline_s=0.0003),
            Tenant("interactive", weight=4.0, default_timeout_s=0.5),
            Tenant("adhoc", weight=1.0, rate_limit_qps=200.0, burst=4.0,
                   queue_cap=8),
        ),
        policy=policy,
        batch_window=batch_window,
    )
    svc = QueryService(system, cfg)
    rng = np.random.default_rng(seed)
    names = [ten.name for ten in cfg.tenants]
    tickets = _serve(svc, arrivals(
        rng, _frontier(system), ((requests, rate_qps),),
        lambda rng, phase: names[int(rng.integers(len(names)))],
    ))
    return MonitorRun(
        system=system, service=svc, monitor=None, tickets=tickets,
        t_end=_frontier(system),
    )


# ----------------------------------------------------------------- monitor
def _burn_windows(fast_window_s: float, slow_window_s: float) -> dict:
    return dict(
        fast_window_s=fast_window_s, slow_window_s=slow_window_s,
        fast_burn=5.0, slow_burn=1.0,
    )


def _steady_wait(windows: dict) -> SLO:
    """Tail queue wait of the ``steady`` tenant (both SLO sets judge it)."""
    return SLO(
        name="steady-wait", tenant="steady", sli="queue_wait",
        objective=0.95, threshold_s=0.004, **windows,
    )


def demo_slos(
    fast_window_s: float = 0.008, slow_window_s: float = 0.04
) -> Tuple[SLO, ...]:
    """The monitor scenario's SLOs: shed rate on the rate-limited tenant,
    p-high queue wait on the steady tenant, error rate across tenants."""
    windows = _burn_windows(fast_window_s, slow_window_s)
    return (
        SLO(name="bursty-shed", tenant="bursty", sli="shed", objective=0.90,
            **windows),
        _steady_wait(windows),
        SLO(name="any-error", tenant="*", sli="error", objective=0.99,
            **windows),
    )


def demo_monitor_run(
    seed: int = 1234,
    requests: int = 150,
    monitored: bool = True,
    fault_plan=None,
    scrape_interval_s: Optional[float] = 0.002,
) -> MonitorRun:
    """The deterministic overload scenario every monitor surface shares.

    Two tenants on the demo deployment: ``steady`` (no knobs) and
    ``bursty`` (rate-limited with a queue deadline).  Seeded Poisson
    arrivals run light → overload (the burst tenant's offered load far
    exceeds its rate limit, queues back up, sheds begin) → light again,
    so the fast-burn alert must fire during the surge and clear once the
    backlog drains.  With ``monitored=False`` the run is the zero-cost
    control: no monitor is installed and the system behaves exactly as a
    pre-monitor build.
    """
    # An isolated registry: the scrape cadence records counter series,
    # so sharing the process-wide registry would make the sample count
    # depend on whatever else ran in this process.
    system, _, _ = demo_deployment(metrics=MetricsRegistry())
    monitor: Optional[ServiceMonitor] = None
    if monitored:
        monitor = ServiceMonitor(
            slos=demo_slos(),
            registry=system.metrics,
            scrape_interval_s=scrape_interval_s,
        )
        system.set_monitor(monitor)
    if fault_plan is not None:
        system.set_fault_plan(fault_plan)

    cfg = ServiceConfig(
        tenants=(
            Tenant("steady", weight=2.0),
            Tenant(
                "bursty",
                weight=1.0,
                rate_limit_qps=2000.0,
                burst=4.0,
                queue_cap=32,
                queue_deadline_s=0.002,
            ),
        ),
        policy="wfq",
        batch_window=4,
    )
    svc = QueryService(system, cfg)

    rng = np.random.default_rng(seed)
    n_light = requests // 3
    n_heavy = requests - 2 * n_light
    bursty_share = (0.3, 0.7, 0.3)
    tickets = _serve(svc, arrivals(
        rng, _frontier(system),
        ((n_light, 400.0), (n_heavy, 6000.0), (n_light, 400.0)),
        lambda rng, phase: (
            "bursty" if rng.random() < bursty_share[phase] else "steady"
        ),
    ))
    t_end = _frontier(system)
    if monitor is not None:
        # Final tick so burn rates settle at the drained frontier.
        monitor.on_tick(t_end)
    return MonitorRun(
        system=system,
        service=svc,
        monitor=monitor,
        tickets=tickets,
        t_end=t_end,
        alerts=list(monitor.alerts) if monitor is not None else [],
    )


# ----------------------------------------------------------------- cluster
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
) -> Tuple[SLO, ...]:
    """The elastic scenario's SLOs: the steady tenant's tail wait plus the
    migration-duration SLI the rebalancer feeds."""
    windows = _burn_windows(fast_window_s, slow_window_s)
    return (
        _steady_wait(windows),
        SLO(name="migration-time", tenant="cluster", sli="migration",
            objective=0.90, threshold_s=0.05, **windows),
    )


def _p99(waits: List[float]) -> float:
    if not waits:
        return math.nan
    return float(np.percentile(np.asarray(waits, dtype=np.float64), 99.0))


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
    that rate, sustained to the end.  The service monitor's queue-wait
    series breach the autoscaler's p99 target, the fleet grows (each
    step a copy-then-commit region migration charged in simulated time);
    recovery is judged on the surge arrivals dispatched after the last
    scale-out committed.
    """
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
    QueryEngine(system).execute(
        Condition("energy", QueryOp.GT, PDCType.FLOAT, 0.0)
    )

    servers_before = len(system.membership.serving_ids)
    n_light = requests // 3
    stream = list(arrivals(
        rng, _frontier(system),
        ((n_light, base_rate_qps),
         (requests - n_light, base_rate_qps * surge_factor)),
        lambda rng, phase: "steady",
    ))
    t_surge = next((t for phase, t, _, _ in stream if phase == 1), math.nan)
    tickets = _serve(svc, stream)
    t_end = _frontier(system)
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
    run.p99_pre_s = _p99(pre)
    run.p99_peak_s = _p99(peak)
    run.p99_recovered_s = _p99(rec)
    return run
