"""Metrics: labeled counters, gauges, and power-of-two-bucket
histograms.

The design follows the Prometheus client model — named metric *families*
with a fixed label schema, ``labels(...)`` resolving one labeled child —
but stays dependency-free.  The histogram metric dogfoods the paper's
Algorithm-1 binning (:class:`~repro.histogram.mergeable.MergeableHistogram`):
observations land on an aligned power-of-two-width grid, so histograms of
the same metric from different processes/servers merge exactly, the same
property the paper exploits for per-region histograms.

Each ``PDCSystem`` counts into its own :class:`MetricsRegistry` (one it
is handed, or a fresh one), so two deployments in one process never mix
their counters.  A site on the request path resolves its labelled child
once, on first use (:meth:`_Metric.handles`), and after that pays one dict
lookup plus the increment.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "MetricsError",
    "Counter",
    "Gauge",
    "HistogramMetric",
    "MetricsRegistry",
    "Handles",
    "escape_label_value",
    "format_labels",
]

#: Observations buffered before folding into the mergeable histogram.
_HIST_FLUSH_THRESHOLD = 1024
#: Cardinality guard: label sets one metric family may hold.
MAX_SERIES_PER_METRIC = 4096
#: Bins of a histogram metric's power-of-two grid.
HISTOGRAM_BINS = 32


class MetricsError(ValueError):
    """Bad metric declaration or use (type/label mismatch, cardinality)."""


def escape_label_value(value: str) -> str:
    """OpenMetrics label-value escaping: backslash, double quote, and
    newline must be escaped inside the quoted value (exposition-format
    spec).  Order matters — backslash first, or the other escapes would
    be double-escaped."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def format_labels(labels: Dict[str, str]) -> str:
    """Deterministic ``{k="v",...}`` rendering: labels sorted by name,
    values escaped.  Empty string for an empty label set."""
    if not labels:
        return ""
    rendered = ",".join(
        f'{k}="{escape_label_value(v)}"' for k, v in sorted(labels.items())
    )
    return "{" + rendered + "}"


class Handles(dict):
    """``key -> handle``, each made by ``make(key)`` on the key's first
    lookup and a plain dict hit after it: what a hot-path site holds so
    that it declares its metric child or time series once, on first use,
    never eagerly."""

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        handle = self[key] = self.make(key)
        return handle


def label_handles(resolve, names: Tuple[str, ...]) -> Handles:
    """:class:`Handles` over ``resolve(labels dict)``, keyed by the value
    of a one-label schema or by the tuple of values of any other."""
    if len(names) == 1:
        (label,) = names
        return Handles(lambda value: resolve({label: value}))
    return Handles(lambda values: resolve(dict(zip(names, values))))


class _Metric:
    """Common family/child mechanics for all metric kinds.

    A metric with ``label_names`` is a *family*: values live on labeled
    children resolved with :meth:`labels`.  A metric without label names
    is its own single child.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 label_names: Tuple[str, ...] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._children: Dict[Tuple[str, ...], "_Metric"] = {}
        self._handles: Optional[Handles] = None
        self._lock = threading.Lock()

    def labels(self, **labels: object) -> "_Metric":
        """The child for one label assignment (created on first use)."""
        names = self.label_names
        try:  # the keyword names are distinct: same count + all found = same set
            key = tuple([str(labels[n]) for n in names]) if len(labels) == len(names) else None
        except KeyError:
            key = None
        if not key:
            if not names:
                raise MetricsError(f"metric {self.name!r} takes no labels")
            raise MetricsError(
                f"metric {self.name!r} needs labels {names}, "
                f"got {tuple(sorted(labels))}"
            )
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    if len(self._children) >= MAX_SERIES_PER_METRIC:
                        raise MetricsError(
                            f"metric {self.name!r} exceeds "
                            f"{MAX_SERIES_PER_METRIC} label sets (cardinality guard)"
                        )
                    child = type(self)(self.name, self.help)
                    self._children[key] = child
        return child

    def handles(self) -> Handles:
        """This family's children as :class:`Handles` (one per family):
        ``handles()[value]`` (one label) or ``handles()[(v1, v2)]`` is
        :meth:`labels` resolved once per assignment."""
        if self._handles is None:
            self._handles = label_handles(
                lambda labels: self.labels(**labels), self.label_names
            )
        return self._handles

    def _series(self) -> Iterator[Tuple[Dict[str, str], "_Metric"]]:
        """(labels dict, child) pairs — the family itself when unlabeled."""
        if self.label_names:
            for key, child in sorted(self._children.items()):
                yield dict(zip(self.label_names, key)), child
        else:
            yield {}, self

    def _check_unlabeled(self) -> None:
        if self.label_names:
            raise MetricsError(
                f"metric {self.name!r} is labeled {self.label_names}; "
                "call .labels(...) first"
            )


class Counter(_Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if self.label_names or amount < 0:
            self._check_unlabeled()
            raise MetricsError(f"counter {self.name!r} cannot decrease")
        self._value += amount

    def total(self) -> float:
        """Sum over every labeled series (the family's value when
        unlabeled)."""
        return sum(child._value for _, child in self._series())


class Gauge(_Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._value = 0.0

    def set(self, value: float) -> None:
        if self.label_names:
            self._check_unlabeled()
        self._value = float(value)


class HistogramMetric(_Metric):
    """Distribution metric on the paper's mergeable power-of-two grid.

    Observations are buffered and folded into one
    :class:`~repro.histogram.mergeable.MergeableHistogram` whose bin width
    is an exact power of two and whose boundaries sit on the aligned grid
    — so two instances of the same metric merge exactly
    (``a.histogram.merge(b.histogram)``), the Algorithm-1 property.
    """

    kind = "histogram"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._count = 0
        self._sum = 0.0
        self._pending: List[float] = []
        self._hist = None  # lazily a MergeableHistogram

    def observe(self, value: float) -> None:
        if self.label_names:
            self._check_unlabeled()
        self._count += 1
        self._sum += value
        self._pending.append(float(value))
        if len(self._pending) >= _HIST_FLUSH_THRESHOLD:
            self._flush()

    def _flush(self) -> None:
        if not self._pending:
            return
        from ..histogram.mergeable import MergeableHistogram

        batch = MergeableHistogram.from_data(
            np.asarray(self._pending, dtype=np.float64),
            n_bins=HISTOGRAM_BINS,
            sample_fraction=1.0,
        )
        self._hist = batch if self._hist is None else self._hist.merge(batch)
        self._pending.clear()

    @property
    def count(self) -> int:
        self._check_unlabeled()
        return self._count

    @property
    def sum(self) -> float:
        self._check_unlabeled()
        return self._sum

    @property
    def histogram(self):
        """The folded :class:`MergeableHistogram` (None before any
        observation).

        Pending observations are folded into a *view* without being
        committed: reading the histogram — including via ``collect()``
        / ``render()`` / a monitor scrape — never advances the fold
        state, so the bucket grid a later read sees is independent of
        how often the registry was observed in between.
        """
        self._check_unlabeled()
        if not self._pending:
            return self._hist
        from ..histogram.mergeable import MergeableHistogram

        batch = MergeableHistogram.from_data(
            np.asarray(self._pending, dtype=np.float64),
            n_bins=HISTOGRAM_BINS,
            sample_fraction=1.0,
        )
        return batch if self._hist is None else self._hist.merge(batch)

    def buckets(self) -> List[Tuple[float, float, int]]:
        """Non-empty ``(lo, hi, count)`` buckets on the aligned grid."""
        h = self.histogram
        if h is None:
            return []
        return [
            (*h.bin_range(i), int(c))
            for i, c in enumerate(h.counts)
            if c
        ]


class MetricsRegistry:
    """A namespace of metrics with declare-or-fetch semantics.

    ``counter``/``gauge``/``histogram`` return the existing metric when the
    name is already registered (validating that kind and label schema
    match), so instrumentation sites need no global coordination.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------- declare
    def _declare(self, cls, name: str, help: str,
                 labels: Iterable[str]) -> _Metric:
        labels = tuple(labels)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or type(existing) is not cls:
                    raise MetricsError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                if existing.label_names != labels:
                    raise MetricsError(
                        f"metric {name!r} registered with labels "
                        f"{existing.label_names}, not {labels}"
                    )
                return existing
            metric = cls(name, help, labels)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labels: Iterable[str] = ()) -> Counter:
        return self._declare(Counter, name, help, labels)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "",
              labels: Iterable[str] = ()) -> Gauge:
        return self._declare(Gauge, name, help, labels)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  labels: Iterable[str] = ()) -> HistogramMetric:
        return self._declare(HistogramMetric, name, help, labels)  # type: ignore[return-value]

    # ------------------------------------------------------------- inspect
    def total(self, name: str) -> float:
        """Sum of a counter family over all label sets (0.0 when absent)."""
        metric = self._metrics.get(name)
        if metric is None or not isinstance(metric, Counter):
            return 0.0
        return metric.total()

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def collect(self) -> Iterator[Tuple[str, str, Dict[str, str], float]]:
        """Flat samples: ``(name, kind, labels, value)``.  Histograms emit
        ``_count``/``_sum`` plus one ``_bucket`` sample per non-empty bin
        (with ``le`` = bucket upper edge)."""
        for name in self.names():
            metric = self._metrics[name]
            for labels, child in metric._series():
                if isinstance(child, HistogramMetric):
                    yield f"{name}_count", metric.kind, labels, float(child.count)
                    yield f"{name}_sum", metric.kind, labels, child.sum
                    for lo, hi, c in child.buckets():
                        yield (
                            f"{name}_bucket", metric.kind,
                            {**labels, "le": f"{hi:g}"}, float(c),
                        )
                else:
                    yield name, metric.kind, labels, child._value

    def render(self) -> str:
        """Prometheus-style text exposition."""
        lines: List[str] = []
        seen: set = set()
        for name, kind, labels, value in self.collect():
            family = name.rsplit("_", 1)[0] if name.endswith(
                ("_count", "_sum", "_bucket")
            ) else name
            if family not in seen:
                seen.add(family)
                metric = self._metrics.get(family)
                if metric is not None:
                    if metric.help:
                        lines.append(f"# HELP {family} {metric.help}")
                    lines.append(f"# TYPE {family} {metric.kind}")
            lines.append(f"{name}{format_labels(labels)} {value:g}")
        return "\n".join(lines)

