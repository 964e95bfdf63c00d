"""Exposition for the continuous-telemetry pipeline.

Three consumers, three formats:

* **OpenMetrics text** (:func:`render_openmetrics`) — the cumulative
  engine registry plus *windowed* series aggregates (rate, p50/p95/p99,
  …) and live SLO burn-rate/budget gauges, rendered with proper label
  escaping and terminated by ``# EOF`` per the exposition-format spec.
  Windowed samples use recording-rule-style names
  (``<series>:window_rate``), the Prometheus idiom for derived series.
* **JSONL** — the recorder's ring buffers
  (:meth:`~repro.obs.timeseries.TimeSeriesRecorder.write_jsonl`) and the
  alert stream (:func:`write_alerts_jsonl`), both byte-deterministic, so
  offline analysis and replay need no live system.
* **Replay frames** (:func:`replay_frames`) — ``pdc monitor --watch``:
  step a *recorded* run forward in fixed simulated-time frames, showing
  per-tenant windowed stats and the alerts active in each frame,
  reconstructed purely from the two JSONL artifacts.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterator, List, Optional

from .metrics import format_labels
from .monitor import MONITOR_WINDOW_S
from .slo import Alert
from .timeseries import TimeSeriesRecorder

__all__ = [
    "render_openmetrics",
    "write_alerts_jsonl",
    "read_alerts_jsonl",
    "replay_frames",
]

#: Windowed aggregates exposed per series kind (recording-rule suffixes).
_WINDOW_FIELDS = {
    "event": ("rate", "sum", "max", "p50", "p95", "p99"),
    "counter": ("rate", "increase"),
    "gauge": ("last", "min", "max", "mean"),
}


def _sample_line(name: str, labels: Dict[str, str], value: float) -> str:
    return f"{name}{format_labels(labels)} {value:g}"


def render_openmetrics(
    registry=None,
    recorder: Optional[TimeSeriesRecorder] = None,
    slo_monitor=None,
    t_end: Optional[float] = None,
) -> str:
    """One OpenMetrics exposition of everything we know.

    Any of the sources may be None; the output always ends with
    ``# EOF``.  All derived values are computed from recorded samples at
    simulated instant ``t_end`` (default: the recorder's latest sample)
    over the monitor's window (:data:`~repro.obs.monitor.MONITOR_WINDOW_S`).
    """
    lines: List[str] = []

    if registry is not None:
        lines.append(registry.render())

    if recorder is not None:
        t = recorder.t_latest if t_end is None else t_end
        seen_types: set = set()
        for series in recorder.all_series():
            ws = series.window(t, MONITOR_WINDOW_S)
            for fieldname in _WINDOW_FIELDS[series.kind]:
                value = getattr(ws, fieldname)
                if isinstance(value, float) and math.isnan(value):
                    continue
                name = f"{series.name}:window_{fieldname}"
                if name not in seen_types:
                    seen_types.add(name)
                    lines.append(f"# TYPE {name} gauge")
                lines.append(_sample_line(name, series.labels, value))

    if slo_monitor is not None:
        lines.append("# TYPE pdc_slo_burn_rate gauge")
        lines.append("# TYPE pdc_slo_firing gauge")
        lines.append("# TYPE pdc_slo_budget_used gauge")
        for st in slo_monitor.states:
            base = {"slo": st.slo.name, "tenant": st.slo.tenant}
            for window, burn, firing in (
                ("fast", st.burn_fast, st.firing_fast),
                ("slow", st.burn_slow, st.firing_slow),
            ):
                labels = {**base, "window": window}
                lines.append(_sample_line("pdc_slo_burn_rate", labels, burn))
                lines.append(
                    _sample_line("pdc_slo_firing", labels, float(firing))
                )
            lines.append(
                _sample_line("pdc_slo_budget_used", base, st.budget_used)
            )

    lines.append("# EOF")
    return "\n".join(lines)


# ------------------------------------------------------------- alert JSONL
def write_alerts_jsonl(alerts: List[Alert], path: str) -> None:
    """The alert stream, one canonical JSON record per line — the
    byte-deterministic artifact the fingerprint hashes."""
    with open(path, "w", encoding="utf-8") as f:
        for alert in alerts:
            f.write(json.dumps(alert.to_record(), sort_keys=True) + "\n")


def read_alerts_jsonl(path: str) -> List[Alert]:
    alerts: List[Alert] = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            alerts.append(Alert(**rec))
    return alerts


# ----------------------------------------------------------------- replay
def replay_frames(
    recorder: TimeSeriesRecorder,
    alerts: List[Alert],
    step_s: float,
    window_s: Optional[float] = None,
    t_start: float = 0.0,
) -> Iterator[str]:
    """``--watch`` replay: render one status frame per ``step_s`` of
    simulated time, from recorded artifacts alone.

    Each frame shows the per-tenant windowed view at the frame's end
    instant plus every alert transition inside the frame and the set of
    alerts still active — all reconstructed from the series JSONL and
    alert JSONL, no live system required.
    """
    if step_s <= 0.0:
        raise ValueError("step_s must be positive")
    w = step_s if window_s is None else window_s
    t_last = max(
        recorder.t_latest, max((a.t_s for a in alerts), default=0.0)
    )
    tenants = sorted(
        {
            s.labels["tenant"]
            for s in recorder.all_series()
            if "tenant" in s.labels
        }
    )
    active: Dict[tuple, Alert] = {}
    idx = 0
    n_frames = max(1, math.ceil((t_last - t_start) / step_s))
    for i in range(n_frames):
        t = t_start + (i + 1) * step_s
        frame: List[str] = [
            f"--- frame {i + 1}/{n_frames} @ t={t * 1e3:9.3f} ms "
            f"(window {w * 1e3:.1f} ms) ---"
        ]
        frame.append(
            f"{'tenant':<10} {'req/s':>8} {'done/s':>8} {'shed/s':>8} "
            f"{'rej/s':>8} {'p99 wait ms':>12}"
        )
        for tenant in tenants:
            subs = recorder.window(
                "pdc_service_outcomes", t, w, tenant=tenant,
                outcome="submitted",
            )
            done = recorder.window(
                "pdc_service_outcomes", t, w, tenant=tenant, outcome="done"
            )
            shed = recorder.window(
                "pdc_service_outcomes", t, w, tenant=tenant, outcome="shed"
            )
            rej = recorder.window(
                "pdc_service_outcomes", t, w, tenant=tenant,
                outcome="rejected",
            )
            qw = recorder.window(
                "pdc_service_queue_wait_sim_seconds", t, w, tenant=tenant
            )
            p99 = "-" if math.isnan(qw.p99) else f"{qw.p99 * 1e3:.3f}"
            frame.append(
                f"{tenant:<10} {subs.rate:>8.0f} {done.rate:>8.0f} "
                f"{shed.rate:>8.0f} {rej.rate:>8.0f} {p99:>12}"
            )
        while idx < len(alerts) and alerts[idx].t_s <= t:
            a = alerts[idx]
            key = (a.slo, a.window)
            if a.kind == "fire":
                active[key] = a
            else:
                active.pop(key, None)
            frame.append(
                f"  ALERT {a.kind.upper():<5} {a.slo} [{a.window}] "
                f"burn={a.burn_rate:.2f} budget_used={a.budget_used * 100:.1f}% "
                f"@ t={a.t_s * 1e3:.3f} ms"
            )
            idx += 1
        if active:
            names = ", ".join(
                f"{slo}[{window}]" for slo, window in sorted(active)
            )
            frame.append(f"  firing: {names}")
        else:
            frame.append("  firing: none")
        yield "\n".join(frame)
