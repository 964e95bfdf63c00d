"""Ring-buffered time series over the simulated clocks.

The metrics registry (:mod:`repro.obs.metrics`) holds *cumulative* state:
counters only grow, histograms only accumulate.  That answers "how much,
ever", but the runtime signals the query service lives on — queue-wait
percentiles over the last window, shed **rate**, per-server read traffic
— are *windowed* views over simulated time.  A
:class:`TimeSeriesRecorder` keeps one bounded ring buffer of
``(simulated_t, value)`` samples per labeled series and computes
tumbling/sliding window aggregates deterministically from the samples:
same run, same windows, bit for bit.  The wall clock never appears.

Three series kinds, mirroring the registry:

* ``gauge`` — instantaneous samples (queue depth); window aggregates are
  first/last/min/max/mean over the samples inside the window.
* ``counter`` — cumulative samples (a scraped registry counter); the
  window aggregate is the *increase* over the window and its rate.
* ``event`` — one sample per occurrence (a queue wait, a window width);
  aggregates are count/rate/sum/min/max plus p50/p95/p99 computed by
  folding the window's samples through the paper's Algorithm-1
  machinery (:meth:`~repro.histogram.mergeable.MergeableHistogram.quantile`),
  exactly as the engine's own histogram metrics do.

:meth:`TimeSeriesRecorder.scrape` snapshots a whole
:class:`~repro.obs.metrics.MetricsRegistry` at one simulated instant, so
cumulative engine counters become rate-queryable series without touching
the instrumentation sites.
"""

from __future__ import annotations

import json
import math
import sys
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Deque, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .metrics import Handles, label_handles

__all__ = [
    "SERIES_KINDS",
    "Sample",
    "TimeSeries",
    "WindowStats",
    "TimeSeriesRecorder",
]

#: Valid series kinds (see module docstring).
SERIES_KINDS = ("gauge", "counter", "event")

#: Default ring-buffer capacity per labeled series.
DEFAULT_CAPACITY = 4096

#: The earliest instant a sample may carry (a finite one).
_EARLIEST = -sys.float_info.max

#: Label tuple form used as part of a series key: sorted (name, value).
_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    """The key of a label map whose names and values are already strings."""
    return tuple(sorted(labels.items()))


class Sample(NamedTuple):
    """One recorded observation: a simulated instant and a value."""

    t_s: float
    value: float


#: ``Sample(t_s, value)`` from a pair, without the Python-level
#: ``__new__`` call (what ``namedtuple._make`` itself does).
_sample = partial(tuple.__new__, Sample)


@dataclass
class WindowStats:
    """Deterministic aggregates of one series over ``(t_end - width, t_end]``.

    ``count`` is the number of samples inside the window; every other
    field is derived from those samples only.  ``rate`` is per simulated
    second: occurrences/width for events, increase/width for counters.
    Percentiles are ``nan`` for empty windows and for non-event kinds.
    """

    name: str
    labels: Dict[str, str]
    kind: str
    t_start: float
    t_end: float
    count: int = 0
    sum: float = 0.0
    min: float = math.nan
    max: float = math.nan
    first: float = math.nan
    last: float = math.nan
    mean: float = math.nan
    #: Events: count / width.  Counters: (last - first) / width.
    rate: float = 0.0
    #: Counters only: total increase across the window.
    increase: float = 0.0
    p50: float = math.nan
    p95: float = math.nan
    p99: float = math.nan


class TimeSeries:
    """One labeled series: a bounded, time-ordered ring of samples."""

    __slots__ = ("name", "labels", "kind", "samples", "capacity", "dropped")

    def __init__(
        self,
        name: str,
        labels: Dict[str, str],
        kind: str,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if kind not in SERIES_KINDS:
            raise ValueError(f"unknown series kind {kind!r}; valid: {SERIES_KINDS}")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.name = name
        self.labels = dict(labels)
        self.kind = kind
        self.capacity = capacity
        self.samples: Deque[Sample] = deque(maxlen=capacity)
        #: Samples evicted by the ring bound (visible so exports can say
        #: the series is truncated rather than silently partial).
        self.dropped = 0

    def append(self, t_s: float, value: float) -> None:
        """Append one sample: a finite instant no earlier than the latest."""
        t_s, samples = float(t_s), self.samples
        latest = samples[-1].t_s if samples else _EARLIEST
        if not latest <= t_s < math.inf:  # NaN fails too
            raise self._refused(t_s, latest)
        if len(samples) == self.capacity:
            self.dropped += 1
        samples.append(_sample((t_s, float(value))))

    def extend(self, points: Iterable[Tuple[float, float]]) -> None:
        """Append ``(t_s, value)`` samples in order, each checked as
        :meth:`append` checks it; a batch holding a refused instant appends
        nothing."""
        samples = self.samples
        latest = samples[-1].t_s if samples else _EARLIEST
        new = []
        for t_s, value in points:
            t_s = float(t_s)
            if not latest <= t_s < math.inf:
                raise self._refused(t_s, latest)
            new.append(_sample((t_s, float(value))))
            latest = t_s
        self.dropped += max(0, len(samples) + len(new) - self.capacity)
        samples.extend(new)

    def _refused(self, t_s: float, latest: float) -> ValueError:
        if not math.isfinite(t_s):
            return ValueError(f"series {self.name!r}: sample at t={t_s} is not finite")
        return ValueError(
            f"series {self.name!r}: sample at t={t_s} precedes latest t={latest} "
            "(simulated time only moves forward)"
        )

    def __len__(self) -> int:
        return len(self.samples)

    def in_window(self, t_end: float, width_s: float) -> List[Sample]:
        """Samples with ``t_start < t <= t_end`` where
        ``t_start = t_end - width_s`` (half-open on the left, so tumbling
        windows partition the timeline without double counting)."""
        t_start = t_end - width_s
        return [s for s in self.samples if t_start < s.t_s <= t_end]

    def window(
        self, t_end: float, width_s: float, quantile_bins: int = 64
    ) -> WindowStats:
        """Aggregate this series over ``(t_end - width_s, t_end]``."""
        _check_width(width_s)
        inside = self.in_window(t_end, width_s)
        ws = WindowStats(
            name=self.name,
            labels=dict(self.labels),
            kind=self.kind,
            t_start=t_end - width_s,
            t_end=t_end,
            count=len(inside),
        )
        if not inside:
            return ws
        values = np.array([s.value for s in inside], dtype=np.float64)
        ws.sum = float(values.sum())
        ws.min = float(values.min())
        ws.max = float(values.max())
        ws.first = float(values[0])
        ws.last = float(values[-1])
        ws.mean = ws.sum / ws.count
        if self.kind == "counter":
            # Increase over the window needs the sample just *before* the
            # window when one exists (otherwise the first inside sample is
            # the best available base — a series that started mid-window).
            base = ws.first
            for s in reversed(self.samples):
                if s.t_s <= ws.t_start:
                    base = s.value
                    break
            ws.increase = max(0.0, ws.last - base)
            ws.rate = ws.increase / width_s
        elif self.kind == "event":
            ws.rate = ws.count / width_s
            ws.p50, ws.p95, ws.p99 = _percentiles(
                values, (0.50, 0.95, 0.99), quantile_bins
            )
        return ws


def _check_width(width_s: float) -> None:
    if not 0.0 < width_s < math.inf:  # NaN fails too
        raise ValueError("window width must be positive and finite")


def _percentiles(
    values: np.ndarray, qs: Tuple[float, ...], n_bins: int
) -> Tuple[float, ...]:
    """Window percentiles via the mergeable power-of-two histogram — the
    same estimator the engine's histogram metrics use, so windowed p99s
    and cumulative p99s agree on identical data."""
    from ..histogram.mergeable import MergeableHistogram

    if values.size == 1:
        v = float(values[0])
        return tuple(v for _ in qs)
    hist = MergeableHistogram.from_data(
        values, n_bins=n_bins, sample_fraction=1.0
    )
    return tuple(hist.quantile(q) for q in qs)


class TimeSeriesRecorder:
    """A namespace of ring-buffered series keyed by ``(name, labels)``.

    Purely passive: recording reads nothing and charges nothing — callers
    pass the simulated instant explicitly, so a recorder can sit behind
    disabled-by-default hooks without perturbing any clock.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._series: Dict[Tuple[str, _LabelKey], TimeSeries] = {}

    # ------------------------------------------------------------- recording
    def record(
        self,
        name: str,
        t_s: float,
        value: float,
        kind: str = "gauge",
        labels: Optional[Dict[str, object]] = None,
        **label_kw: object,
    ) -> None:
        """Append one sample (creating the series on first use).

        Labels come from the ``labels`` dict and/or keyword convenience
        (the dict form exists because a label may legitimately be named
        ``kind``, e.g. the fault-injection counters).  Re-recording an
        existing series with a different ``kind`` is a schema error,
        mirroring the metrics registry's declare-or-fetch.
        """
        self.declare(name, kind, labels, **label_kw).append(t_s, value)

    def declare(
        self,
        name: str,
        kind: str = "gauge",
        labels: Optional[Dict[str, object]] = None,
        **label_kw: object,
    ) -> TimeSeries:
        """The series ``(name, labels)``, created on first use: what
        :meth:`record` appends to, for a caller appending many samples
        (:meth:`TimeSeries.extend`).  A different ``kind`` than the
        series was created with is a schema error."""
        merged = {**(labels or {}), **label_kw}
        label_map = {str(k): str(v) for k, v in merged.items()}
        key = (name, _label_key(label_map))
        series = self._series.get(key)
        if series is None:
            series = TimeSeries(name, label_map, kind, capacity=self.capacity)
            self._series[key] = series
        elif series.kind != kind:
            raise ValueError(
                f"series {name!r} is {series.kind!r}, not {kind!r}"
            )
        return series

    def handles(self, name: str, kind: str, *label_names: str) -> Handles:
        """:meth:`declare` resolved once per label assignment: keyed by
        the value of one label name, or by the tuple of values of several
        (``()`` for none) — what a hot-path hook holds."""
        return label_handles(
            lambda labels: self.declare(name, kind, labels), label_names
        )

    def observe(self, name: str, t_s: float, value: float, **labels: object) -> None:
        """Record one occurrence (``event`` kind)."""
        self.record(name, t_s, value, kind="event", **labels)

    def scrape(self, registry, t_s: float, prefix: str = "") -> int:
        """Snapshot every flat sample of a metrics registry at ``t_s``.

        Counters (including histogram ``_count``/``_sum``/``_bucket``
        components) become ``counter`` series; gauges become ``gauge``
        series.  Returns the number of samples recorded.  Scraping only
        *reads* the registry — cumulative state is untouched.
        """
        n = 0
        for name, kind, labels, value in registry.collect():
            self.record(
                prefix + name,
                t_s,
                value,
                kind="gauge" if kind == "gauge" else "counter",
                labels=labels,
            )
            n += 1
        return n

    # ------------------------------------------------------------ inspection
    def series(
        self,
        name: str,
        labels: Optional[Dict[str, object]] = None,
        **label_kw: object,
    ) -> Optional[TimeSeries]:
        merged = {**(labels or {}), **label_kw}
        key = (name, _label_key({str(k): str(v) for k, v in merged.items()}))
        return self._series.get(key)

    def all_series(self) -> Iterator[TimeSeries]:
        """Every series, sorted by (name, labels) for deterministic
        iteration."""
        for key in sorted(self._series):
            yield self._series[key]

    def window(
        self,
        name: str,
        t_end: float,
        width_s: float,
        labels: Optional[Dict[str, object]] = None,
        **label_kw: object,
    ) -> WindowStats:
        """Aggregate one series over a sliding window; an empty
        :class:`WindowStats` when the series does not exist."""
        _check_width(width_s)
        merged = {**(labels or {}), **label_kw}
        series = self.series(name, labels=merged)
        if series is None:
            return WindowStats(
                name=name,
                labels={str(k): str(v) for k, v in merged.items()},
                kind="event",
                t_start=t_end - width_s,
                t_end=t_end,
            )
        return series.window(t_end, width_s)

    def total_samples(self) -> int:
        return sum(len(s) for s in self._series.values())

    @property
    def t_latest(self) -> float:
        """Latest simulated instant across every series (0.0 when empty)."""
        latest = 0.0
        for s in self._series.values():
            if s.samples:
                latest = max(latest, s.samples[-1].t_s)
        return latest

    # ---------------------------------------------------------------- export
    def to_jsonl_records(self) -> List[Dict]:
        """One record per series: schema + the ring's samples, in
        deterministic order — the offline-analysis twin of the tracer's
        JSONL log."""
        records: List[Dict] = []
        for series in self.all_series():
            records.append(
                {
                    "type": "series",
                    "name": series.name,
                    "labels": dict(sorted(series.labels.items())),
                    "kind": series.kind,
                    "dropped": series.dropped,
                    "samples": [[s.t_s, s.value] for s in series.samples],
                }
            )
        return records

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.to_jsonl_records():
                f.write(json.dumps(rec, sort_keys=True) + "\n")

    @classmethod
    def from_jsonl_records(cls, records: List[Dict]) -> "TimeSeriesRecorder":
        rec = cls()
        for r in records:
            if r.get("type") != "series":
                continue
            labels = {str(k): str(v) for k, v in (r.get("labels") or {}).items()}
            series = TimeSeries(
                r["name"], labels, r["kind"],
                capacity=max(rec.capacity, len(r["samples"]) or 1),
            )
            series.extend(r["samples"])
            series.dropped = int(r.get("dropped", 0))
            rec._series[(series.name, _label_key(series.labels))] = series
        return rec

    @classmethod
    def read_jsonl(cls, path: str) -> "TimeSeriesRecorder":
        with open(path, "r", encoding="utf-8") as f:
            records = [json.loads(line) for line in f if line.strip()]
        return cls.from_jsonl_records(records)
