"""Metrics registry: counters, gauges, label cardinality, and the
Algorithm-1 histogram buckets."""

import numpy as np
import pytest

from repro.histogram.mergeable import MergeableHistogram, round_down_pow2
from repro.obs import MetricsError, MetricsRegistry
from repro.obs.metrics import HISTOGRAM_BINS, escape_label_value, format_labels
from tests.conftest import metric_sample


@pytest.fixture
def reg():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, reg):
        c = reg.counter("requests_total", "Requests.")
        c.inc()
        c.inc(2.5)
        assert c.total() == pytest.approx(3.5)

    def test_cannot_decrease(self, reg):
        c = reg.counter("c")
        with pytest.raises(MetricsError):
            c.inc(-1)

    def test_labels_resolve_children(self, reg):
        c = reg.counter("ops_total", labels=("op",))
        c.labels(op="read").inc(3)
        c.labels(op="write").inc()
        assert c.labels(op="read").total() == 3
        assert c.total() == 4

    def test_family_value_requires_labels(self, reg):
        c = reg.counter("ops_total", labels=("op",))
        with pytest.raises(MetricsError):
            c.inc()

    def test_exact_label_schema_enforced(self, reg):
        c = reg.counter("ops_total", labels=("op", "server"))
        with pytest.raises(MetricsError):
            c.labels(op="read")  # missing server
        with pytest.raises(MetricsError):
            c.labels(op="read", server="s0", extra="x")
        unlabeled = reg.counter("plain_total")
        with pytest.raises(MetricsError):
            unlabeled.labels(op="read")

    def test_cardinality_guard(self, monkeypatch):
        monkeypatch.setattr("repro.obs.metrics.MAX_SERIES_PER_METRIC", 8)
        reg = MetricsRegistry()
        c = reg.counter("ops_total", labels=("op",))
        for i in range(8):
            c.labels(op=f"op{i}").inc()
        with pytest.raises(MetricsError):
            c.labels(op="one-too-many")

    def test_default_cap_fits_the_papers_largest_deployment(self):
        # Fig. 6 scales to 512 servers and the cache-removal family has
        # three reasons per server; a default cap of 1000 made
        # `python -m repro fig6` (and `all`) die building that system.
        from repro.pdc import PDCConfig, PDCSystem

        system = PDCSystem(PDCConfig(n_servers=512), metrics=MetricsRegistry())
        assert len(system.servers) == 512


class TestGauge:
    def test_set(self, reg):
        g = reg.gauge("temp")
        g.set(10)
        g.set(13)
        assert metric_sample(reg, "temp") == 13


class TestRegistry:
    def test_declare_or_fetch(self, reg):
        a = reg.counter("x_total", "help")
        b = reg.counter("x_total")
        assert a is b

    def test_kind_mismatch_rejected(self, reg):
        reg.counter("x_total")
        with pytest.raises(MetricsError):
            reg.gauge("x_total")
        with pytest.raises(MetricsError):
            reg.histogram("x_total")

    def test_label_schema_mismatch_rejected(self, reg):
        reg.counter("x_total", labels=("a",))
        with pytest.raises(MetricsError):
            reg.counter("x_total", labels=("a", "b"))

    def test_total_of_absent_metric(self, reg):
        assert reg.total("nope") == 0.0

    def test_render_prometheus_text(self, reg):
        c = reg.counter("ops_total", "Operations.", labels=("op",))
        c.labels(op="read").inc(2)
        text = reg.render()
        assert "# HELP ops_total Operations." in text
        assert "# TYPE ops_total counter" in text
        assert 'ops_total{op="read"} 2' in text

    def test_collect_histogram_samples(self, reg, monkeypatch):
        monkeypatch.setattr("repro.obs.metrics.HISTOGRAM_BINS", 8)
        h = reg.histogram("lat_seconds")
        for v in (0.1, 0.2, 0.4):
            h.observe(v)
        samples = {name: value for name, _, labels, value in reg.collect()
                   if not labels.get("le")}
        assert samples["lat_seconds_count"] == 3
        assert samples["lat_seconds_sum"] == pytest.approx(0.7)
        buckets = [s for s in reg.collect() if s[0] == "lat_seconds_bucket"]
        assert sum(v for _, _, _, v in buckets) == 3


class TestRenderEscaping:
    """Regression: exposition must sort labels deterministically and
    escape quotes/backslashes/newlines in label values per the
    OpenMetrics exposition format."""

    def test_label_values_escaped(self, reg):
        c = reg.counter("q_total", labels=("expr",))
        c.labels(expr='energy > "2.0" \\ x\nAND y').inc()
        text = reg.render()
        assert (
            'q_total{expr="energy > \\"2.0\\" \\\\ x\\nAND y"} 1' in text
        )
        # The raw newline must NOT survive into the sample line.
        sample_lines = [
            line for line in text.splitlines() if line.startswith("q_total{")
        ]
        assert len(sample_lines) == 1

    def test_escape_helper(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"
        # Backslash first: an escaped quote does not get double-escaped.
        assert escape_label_value('\\"') == '\\\\\\"'

    def test_format_labels_sorted_and_deterministic(self):
        labels = {"zeta": "1", "alpha": "2", "mid": "3"}
        rendered = format_labels(labels)
        assert rendered == '{alpha="2",mid="3",zeta="1"}'
        assert format_labels(dict(reversed(list(labels.items())))) == rendered
        assert format_labels({}) == ""

    def test_render_sorts_multi_label_series(self, reg):
        c = reg.counter("m_total", labels=("b", "a"))
        c.labels(b="2", a="1").inc()
        text = reg.render()
        # Alphabetical label order regardless of declaration order.
        assert 'm_total{a="1",b="2"} 1' in text


class TestHistogramBucketAlignment:
    """The metric histogram must sit on the same Algorithm-1 grid as
    histogram/mergeable.py."""

    def test_buckets_match_mergeable_histogram(self, reg):
        rng = np.random.default_rng(7)
        data = rng.gamma(2.0, 0.7, 2000)
        h = reg.histogram("d")
        for v in data:
            h.observe(v)
        direct = MergeableHistogram.from_data(
            data.astype(np.float64), n_bins=HISTOGRAM_BINS, sample_fraction=1.0
        )
        folded = h.histogram
        # Same power-of-two grid...
        assert folded.bin_width == direct.bin_width
        assert folded.start == direct.start
        # ...and identical counts (buffered batches merge exactly).
        np.testing.assert_array_equal(folded.counts, direct.counts)

    def test_bin_width_is_power_of_two(self, reg, monkeypatch):
        monkeypatch.setattr("repro.obs.metrics.HISTOGRAM_BINS", 16)
        h = reg.histogram("d")
        for v in np.linspace(0.0, 10.0, 500):
            h.observe(float(v))
        width = h.histogram.bin_width
        assert width == round_down_pow2(width)
        assert h.histogram.start % width == 0.0

    def test_two_instances_merge_exactly(self):
        rng = np.random.default_rng(3)
        a_data = rng.normal(5, 2, 1500)
        b_data = rng.normal(5, 2, 1500)
        ra, rb = MetricsRegistry(), MetricsRegistry()
        ha = ra.histogram("d")
        hb = rb.histogram("d")
        for v in a_data:
            ha.observe(float(v))
        for v in b_data:
            hb.observe(float(v))
        merged = ha.histogram.merge(hb.histogram)
        direct = MergeableHistogram.from_data(
            np.concatenate([a_data, b_data]), n_bins=HISTOGRAM_BINS, sample_fraction=1.0
        ).coarsened(merged.bin_width)
        assert merged.total == 3000
        assert merged.bin_width == direct.bin_width

    def test_buffer_flush_threshold(self, reg, monkeypatch):
        monkeypatch.setattr("repro.obs.metrics.HISTOGRAM_BINS", 8)
        h = reg.histogram("d")
        for i in range(2000):
            h.observe(float(i % 50))
        assert h.count == 2000
        assert h.histogram.total == 2000
        assert sum(c for _, _, c in h.buckets()) == 2000

    def test_count_sum_before_any_observation(self, reg):
        h = reg.histogram("d")
        assert h.count == 0 and h.sum == 0.0
        assert h.histogram is None and h.buckets() == []
