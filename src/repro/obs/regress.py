"""Continuous bench-regression gate: a deterministic micro-suite with
``BENCH_*.json`` baselines.

Every number the simulator produces is *simulated* time, so benchmark
results are exactly reproducible: the same code must yield bit-identical
metrics on every machine and every run.  That turns performance testing
into regression pinning — a committed ``BENCH_*.json`` baseline plus a
comparison with per-metric tolerances (default: exact, ~1e-9 relative,
catching any drift in the cost model or evaluation order).  Intentional
performance changes update the baseline explicitly
(``python -m repro benchcheck --update``), which shows up in review as a
diff of numbers — the BENCH trajectory the roadmap calls for.

The micro-suite covers each access path of the demo deployment (all four
strategies + AUTO), a batch window, and a ``get_data``
materialization; one run takes well under a second.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fnmatch import fnmatch
from typing import Dict, List, Optional, Tuple

__all__ = [
    "DEFAULT_BASELINE",
    "DEFAULT_TOLERANCES",
    "MetricCheck",
    "run_micro_suite",
    "load_baseline",
    "write_baseline",
    "compare",
    "render_comparison",
    "benchcheck",
]

#: Canonical committed baseline (repo root), the first entry of the
#: BENCH trajectory.
DEFAULT_BASELINE = "BENCH_microsuite.json"

#: Per-metric relative tolerances, first matching ``fnmatch`` pattern
#: wins.  The default pin is (near-)exact: simulated numbers are
#: deterministic, so any drift is a behavior change that must be either
#: fixed or explicitly re-baselined.
DEFAULT_TOLERANCES: Dict[str, float] = {
    "*": 1e-9,
}


def run_micro_suite() -> Dict[str, float]:
    """Run the deterministic micro-suite; returns metric name → value.

    Each strategy runs on a fresh deployment (cold caches) so the
    per-strategy numbers are independent of suite ordering.
    """
    from ..query.ast import Condition
    from ..query.executor import QueryEngine
    from ..query.scheduler import QueryScheduler
    from ..scenarios import demo_deployment, demo_monitor_run
    from ..strategies import Strategy
    from ..types import PDCType, QueryOp

    out: Dict[str, float] = {}

    for strategy in Strategy:
        system, node, truth = demo_deployment()
        res = QueryEngine(system).execute(node, strategy=strategy)
        tag = strategy.name.lower()
        out[f"query.{tag}.sim_seconds"] = res.elapsed_s
        out[f"query.{tag}.nhits"] = float(res.nhits)
        out[f"query.{tag}.bytes_virtual"] = res.bytes_read_virtual
        out[f"query.{tag}.regions_read"] = float(res.regions_read)

    # A batch window over overlapping threshold queries.
    system, node, truth = demo_deployment()
    queries = [
        Condition("energy", QueryOp.GT, PDCType.FLOAT, t)
        for t in (0.5, 1.0, 1.5, 2.0)
    ]
    sched = QueryScheduler(system, max_width=len(queries))
    sched.run(queries)
    batch = sched.batches[0]
    sched.close()
    out["batch.sim_seconds"] = batch.elapsed_s

    # Value materialization on both get_data paths.
    system, node, truth = demo_deployment()
    engine = QueryEngine(system)
    res = engine.execute(node, strategy=Strategy.SORT_HIST)
    gd = engine.get_data(res.selection, "x", strategy=Strategy.SORT_HIST)
    out["get_data.replica.sim_seconds"] = gd.elapsed_s
    gd = engine.get_data(res.selection, "x", strategy=Strategy.HISTOGRAM)
    out["get_data.original.sim_seconds"] = gd.elapsed_s
    out["get_data.original.bytes_virtual"] = gd.bytes_read_virtual

    # Multi-tenant service queueing under a fixed open-loop arrival
    # pattern: WFQ dispatch shares, queue waits, sheds, and rejections
    # are all simulated-deterministic, so they pin like any cost number.
    from ..service import QueryService, ServiceConfig, Tenant

    system, node, truth = demo_deployment()
    cfg = ServiceConfig(
        tenants=(
            Tenant("heavy", weight=3.0),
            Tenant("light", weight=1.0, queue_deadline_s=0.004),
            Tenant("limited", rate_limit_qps=400.0, burst=2.0, queue_cap=4),
        ),
        policy="wfq",
        batch_window=2,
    )
    svc = QueryService(system, cfg)
    t0 = max(c.now for c in system.all_clocks())
    tenants = ("heavy", "heavy", "light", "heavy", "limited", "limited")
    thresholds = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    tickets = [
        svc.submit(
            tenants[i % len(tenants)],
            Condition("energy", QueryOp.GT, PDCType.FLOAT,
                      thresholds[i % len(thresholds)]),
            arrival_s=t0 + 5e-4 * i,
        )
        for i in range(18)
    ]
    svc.drain()
    svc.close()
    out["service.served"] = float(sum(t.status == "done" for t in tickets))
    out["service.shed"] = float(sum(t.status == "shed" for t in tickets))
    out["service.rejected"] = float(
        sum(t.status == "rejected" for t in tickets)
    )
    out["service.queue_wait_sim_seconds"] = sum(
        t.queue_wait_s for t in tickets if t.queue_wait_s is not None
    )
    out["service.heavy.dispatched"] = float(svc.stats["heavy"].dispatched)
    out["service.light.dispatched"] = float(svc.stats["light"].dispatched)
    out["service.max_queue_wait_sim_seconds"] = max(
        s.queue_wait_max_s for s in svc.stats.values()
    )

    # Continuous-ingest pins: a fixed epoch-batched write stream in delta
    # maintenance mode.  The maintenance decisions (merge vs rebuild vs
    # rescan), compaction instants, and every simulated charge are pure
    # functions of the op stream, so the counters and the post-ingest
    # query pin exactly.  A drift here means the incremental-maintenance
    # or compaction policy changed.
    import numpy as np

    from ..ingest import IngestConfig, IngestStream

    system, node, truth = demo_deployment()
    obj = system.objects["energy"]
    wrng = np.random.default_rng(3)
    stream = IngestStream(
        system,
        IngestConfig(
            epoch_interval_s=0.002,
            maintenance="delta",
            index_compact_fraction=0.05,
        ),
    )
    t0 = max(c.now for c in system.all_clocks())
    ingest_start = t0
    for i in range(24):
        t_i = t0 + 2.5e-4 * i
        if i % 6 == 5:
            # Appends grow both query operands in lockstep (conjunct
            # evaluation requires shared dimensions).
            stream.append(
                "energy",
                wrng.gamma(2.0, 0.7, 256).astype(np.float32),
                t_s=t_i,
            )
            stream.append(
                "x",
                (wrng.random(256) * 300).astype(np.float32),
                t_s=t_i,
            )
        else:
            offset = (i * 611) % (obj.n_elements - 64)
            stream.update(
                "energy",
                offset,
                wrng.gamma(2.0, 0.7, 64).astype(np.float32),
                t_s=t_i,
            )
        stream.advance_to(t_i)
    stream.flush()
    totals = stream.totals()
    out["ingest.epochs"] = totals["epochs"]
    out["ingest.elements"] = totals["elements"]
    out["ingest.hist_merges"] = totals["hist_merges"]
    out["ingest.hist_rebuilds"] = totals["hist_rebuilds"]
    out["ingest.minmax_rescans"] = totals["minmax_rescans"]
    out["ingest.index_delta_appends"] = totals["index_delta_appends"]
    out["ingest.compactions"] = totals["compactions"]
    out["ingest.max_lag_sim_seconds"] = totals["max_lag_s"]
    out["ingest.sim_seconds"] = (
        max(c.now for c in system.all_clocks()) - ingest_start
    )
    res = QueryEngine(system).execute(node)
    out["ingest.post_query.nhits"] = float(res.nhits)
    out["ingest.post_query.sim_seconds"] = res.elapsed_s

    # Continuous-telemetry pins: the demo overload scenario's alert
    # stream is simulated-deterministic, so the burn-rate monitor's
    # fire/clear instants, sample volume, and per-tenant tail waits pin
    # exactly like any cost number.  A drift here means either the
    # service's simulated decisions or the monitor's evaluation changed.
    mrun = demo_monitor_run(requests=90)
    out["monitor.alerts"] = float(len(mrun.alerts))
    fast = [a for a in mrun.alerts if a.window == "fast"]
    out["monitor.fast_fire_sim_seconds"] = next(
        (a.t_s for a in fast if a.kind == "fire"), 0.0
    )
    out["monitor.fast_clear_sim_seconds"] = next(
        (a.t_s for a in fast if a.kind == "clear"), 0.0
    )
    out["monitor.samples"] = float(mrun.monitor.recorder.total_samples())
    out["monitor.shed"] = float(
        sum(s.shed for s in mrun.service.stats.values())
    )
    out["monitor.bursty.p99_queue_wait_sim_seconds"] = (
        mrun.service.stats["bursty"].p99_queue_wait_s
    )

    return out


# ---------------------------------------------------------------- baselines
def write_baseline(
    path: str,
    metrics: Dict[str, float],
    tolerances: Optional[Dict[str, float]] = None,
    note: str = "",
) -> None:
    doc = {
        "suite": "microsuite",
        "note": note,
        "tolerances": dict(tolerances or DEFAULT_TOLERANCES),
        "metrics": dict(metrics),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def load_baseline(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if "metrics" not in doc:
        raise ValueError(f"{path}: not a BENCH baseline (no 'metrics' key)")
    return doc


def _tolerance_for(name: str, tolerances: Dict[str, float]) -> float:
    for pattern, tol in tolerances.items():
        if fnmatch(name, pattern):
            return float(tol)
    return DEFAULT_TOLERANCES["*"]


@dataclass
class MetricCheck:
    """One metric's baseline-vs-current verdict."""

    name: str
    baseline: Optional[float]
    current: Optional[float]
    tolerance: float
    #: "ok" | "regressed" | "improved" | "missing" | "new".  Drift in
    #: either direction beyond tolerance fails the gate — a determinism
    #: pin, not a one-sided threshold — but direction is still reported.
    status: str

    @property
    def failed(self) -> bool:
        return self.status in ("regressed", "improved", "missing")

    @property
    def rel_delta(self) -> float:
        if self.baseline is None or self.current is None:
            return float("nan")
        if self.baseline == 0.0:
            return 0.0 if self.current == 0.0 else float("inf")
        return (self.current - self.baseline) / abs(self.baseline)


def compare(baseline: Dict, current: Dict[str, float]) -> List[MetricCheck]:
    """Check every metric against the baseline's tolerances."""
    tolerances = dict(baseline.get("tolerances") or DEFAULT_TOLERANCES)
    base_metrics: Dict[str, float] = baseline["metrics"]
    checks: List[MetricCheck] = []
    for name in sorted(set(base_metrics) | set(current)):
        tol = _tolerance_for(name, tolerances)
        b = base_metrics.get(name)
        c = current.get(name)
        if b is None:
            checks.append(MetricCheck(name, None, c, tol, "new"))
            continue
        if c is None:
            checks.append(MetricCheck(name, b, None, tol, "missing"))
            continue
        if b == 0.0:
            drift = abs(c) > 0.0
        else:
            drift = abs(c - b) / abs(b) > tol
        if not drift:
            status = "ok"
        else:
            status = "regressed" if c > b else "improved"
        checks.append(MetricCheck(name, b, c, tol, status))
    return checks


def render_comparison(checks: List[MetricCheck]) -> str:
    lines = []
    width = max((len(c.name) for c in checks), default=0)
    for c in checks:
        if c.status == "new":
            lines.append(f"  {c.name:<{width}}  (new)        {c.current!r}")
            continue
        if c.status == "missing":
            lines.append(
                f"  {c.name:<{width}}  MISSING (baseline {c.baseline!r})"
            )
            continue
        mark = "ok" if c.status == "ok" else c.status.upper()
        delta = c.rel_delta
        lines.append(
            f"  {c.name:<{width}}  {c.baseline!r} -> {c.current!r} "
            f"({delta:+.2e} rel, tol {c.tolerance:.0e})  {mark}"
        )
    failed = [c for c in checks if c.failed]
    lines.append(
        f"benchcheck: {'FAIL' if failed else 'PASS'} "
        f"({len(failed)}/{len(checks)} metrics out of tolerance)"
        if failed else
        f"benchcheck: PASS ({len(checks)} metrics within tolerance)"
    )
    return "\n".join(lines)


def benchcheck(
    baseline_path: str = DEFAULT_BASELINE,
    update: bool = False,
    report_path: Optional[str] = None,
) -> Tuple[int, str]:
    """Run the micro-suite and gate against the committed baseline.

    Returns ``(exit_code, report_text)``; exit code 0 means every metric
    stayed within tolerance (or the baseline was (re)written).  With
    ``update=True`` the current numbers become the new baseline.
    ``report_path`` additionally dumps a JSON report (current metrics +
    per-metric verdicts) for CI artifacts.
    """
    current = run_micro_suite()

    if update or not os.path.exists(baseline_path):
        action = "updated" if os.path.exists(baseline_path) else "created"
        write_baseline(baseline_path, current)
        if report_path:
            _write_report(report_path, current, [])
        return 0, f"baseline {action}: {baseline_path} ({len(current)} metrics)"

    baseline = load_baseline(baseline_path)
    checks = compare(baseline, current)
    if report_path:
        _write_report(report_path, current, checks)
    text = f"comparing against {baseline_path}\n" + render_comparison(checks)
    return (1 if any(c.failed for c in checks) else 0), text


def _write_report(
    path: str,
    current: Dict[str, float],
    checks: List[MetricCheck],
) -> None:
    doc = {
        "suite": "microsuite",
        "metrics": current,
        "checks": [
            {
                "name": c.name,
                "baseline": c.baseline,
                "current": c.current,
                "tolerance": c.tolerance,
                "status": c.status,
            }
            for c in checks
        ],
        "failed": sorted(c.name for c in checks if c.failed),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
