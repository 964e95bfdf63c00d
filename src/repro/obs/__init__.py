"""Observability: per-query distributed tracing and a per-deployment
metrics registry.

Two complementary views of a running PDC deployment:

* :mod:`repro.obs.tracer` — hierarchical spans keyed to the *simulated*
  clocks, so a trace is a timeline of where simulated time goes inside a
  query (plan → broadcast → per-conjunct → per-server storage/index reads
  → result gather).  Exports Chrome ``trace_event`` JSON (loadable in
  ``chrome://tracing`` / Perfetto) and a JSONL structured-event log.
* :mod:`repro.obs.metrics` — labeled counters, gauges, and
  power-of-two-bucket histograms (the paper's Algorithm-1 binning,
  dogfooding :class:`~repro.histogram.mergeable.MergeableHistogram`).

Tracing is **zero-cost when disabled**: the default tracer is a
:data:`NOOP_TRACER` whose spans never touch the simulated clocks and whose
real overhead is a couple of attribute reads, so benchmark numbers are
unaffected unless a real :class:`Tracer` is installed with
:meth:`PDCSystem.set_tracer`.

The analysis layer builds on those two primitives:

* :mod:`repro.obs.analyze` — EXPLAIN ANALYZE: join the planner's
  per-step estimates with the executor's measured actuals;
* :mod:`repro.obs.profiler` — critical path, per-clock utilization,
  skew/straggler ranking, and flamegraph export over recorded traces;
* :mod:`repro.obs.regress` — the deterministic micro-suite behind
  ``python -m repro benchcheck`` and its ``BENCH_*.json`` baselines.
"""

from .analyze import (
    QueryAnalysis,
    StepJoin,
    analyze,
    render_analysis,
)
from .export import (
    read_alerts_jsonl,
    render_openmetrics,
    replay_frames,
    write_alerts_jsonl,
)
from .metrics import (
    Counter,
    Gauge,
    HistogramMetric,
    MetricsError,
    MetricsRegistry,
    escape_label_value,
    format_labels,
)
from .monitor import ServiceMonitor
from .slo import SLI_NAMES, SLO, Alert, SLOMonitor, SLOState
from .timeseries import (
    Sample,
    TimeSeries,
    TimeSeriesRecorder,
    WindowStats,
)
from .profiler import (
    ProfileReport,
    TrackStats,
    profile,
    render_profile,
    to_collapsed,
    to_speedscope,
    write_collapsed,
    write_speedscope,
)
from .tracer import NOOP_TRACER, NoopTracer, Span, Tracer

__all__ = [
    "QueryAnalysis",
    "StepJoin",
    "analyze",
    "render_analysis",
    "ProfileReport",
    "TrackStats",
    "profile",
    "render_profile",
    "to_collapsed",
    "to_speedscope",
    "write_collapsed",
    "write_speedscope",
    "Counter",
    "Gauge",
    "HistogramMetric",
    "MetricsError",
    "MetricsRegistry",
    "NOOP_TRACER",
    "NoopTracer",
    "Span",
    "Tracer",
    "escape_label_value",
    "format_labels",
    "Sample",
    "TimeSeries",
    "TimeSeriesRecorder",
    "WindowStats",
    "SLI_NAMES",
    "SLO",
    "Alert",
    "SLOMonitor",
    "SLOState",
    "ServiceMonitor",
    "render_openmetrics",
    "read_alerts_jsonl",
    "write_alerts_jsonl",
    "replay_frames",
]
