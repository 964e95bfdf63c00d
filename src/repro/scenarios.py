"""Scenario drivers: the demo deployment and the seeded open-loop runs.

The mechanism modules (service, monitor) know nothing about any
particular workload; this module is the one place that does.  It owns

* :func:`demo_deployment` — the small two-object system behind every CLI
  subcommand and the bench-regression micro-suite;
* :func:`arrivals` — the one seeded open-loop arrival stream;
* the two scenarios built on both: :func:`demo_serve_run` (multi-tenant
  fair share) and :func:`demo_monitor_run` (overload → SLO burn-rate
  alerts fire and clear), with their SLO set and run record.

Everything runs on simulated clocks from a caller-supplied seed, so two
same-seed runs produce bit-identical tickets, alerts and fingerprints —
which is what lets the CLI (``python -m repro serve|monitor``),
the micro-suite pins and the determinism tests share one definition.
Imported by those three and never by ``repro/__init__``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .obs.monitor import ServiceMonitor
from .obs.slo import SLO, Alert
from .pdc import PDCConfig, PDCSystem
from .query.ast import Condition, combine_and
from .service import QueryService, ServiceConfig, Tenant
from .types import PDCType, QueryOp

__all__ = [
    "demo_deployment",
    "arrivals",
    "MonitorRun",
    "demo_slos",
    "demo_serve_run",
    "demo_monitor_run",
]


def demo_deployment(metrics=None):
    """The small two-object deployment shared by selftest/trace/metrics
    and the micro-suite: an indexed, replica-backed 4-server system plus
    the demo condition tree and its ground-truth hit count.  Without
    ``metrics`` it counts into a registry of its own, so what it reports
    does not depend on whatever else ran in this process."""
    rng = np.random.default_rng(0)
    system = PDCSystem(
        PDCConfig(n_servers=4, region_size_bytes=1 << 13),
        metrics=metrics,
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
    batch_window: int = 4,
) -> MonitorRun:
    """Multi-tenant fair-share scenario: one steady-rate arrival stream,
    each request from a uniformly drawn tenant, against three tenants
    with different weights, deadlines and rate limits, under ``wfq``."""
    system, _, _ = demo_deployment()
    cfg = ServiceConfig(
        tenants=(
            Tenant("batch", weight=1.0, queue_deadline_s=0.0003),
            Tenant("interactive", weight=4.0, default_timeout_s=0.5),
            Tenant("adhoc", weight=1.0, rate_limit_qps=200.0, burst=4.0,
                   queue_cap=8),
        ),
        policy="wfq",
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
def demo_slos(
    fast_window_s: float = 0.008, slow_window_s: float = 0.04
) -> Tuple[SLO, ...]:
    """The monitor scenario's SLOs: shed rate on the rate-limited tenant,
    p-high queue wait on the steady tenant, error rate across tenants."""
    windows = dict(
        fast_window_s=fast_window_s, slow_window_s=slow_window_s,
        fast_burn=5.0, slow_burn=1.0,
    )
    return (
        SLO(name="bursty-shed", tenant="bursty", sli="shed", objective=0.90,
            **windows),
        SLO(name="steady-wait", tenant="steady", sli="queue_wait",
            objective=0.95, threshold_s=0.004, **windows),
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
    system, _, _ = demo_deployment()
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

