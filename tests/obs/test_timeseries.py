"""Ring-buffered time series: windows, kinds, scrape, JSONL round-trip."""

import math

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    DEFAULT_CAPACITY,
    Sample,
    TimeSeries,
    TimeSeriesRecorder,
)


class TestTimeSeries:
    def test_append_and_len(self):
        s = TimeSeries("x", {}, "event")
        s.append(1.0, 10.0)
        s.append(2.0, 20.0)
        assert len(s) == 2
        assert s.samples[-1] == Sample(2.0, 20.0)

    def test_time_must_be_monotonic(self):
        s = TimeSeries("x", {}, "event")
        s.append(2.0, 1.0)
        with pytest.raises(ValueError, match="precedes"):
            s.append(1.0, 1.0)
        # Equal timestamps are allowed (several events at one instant).
        s.append(2.0, 2.0)

    def test_nan_instant_rejected(self):
        # NaN compares False with everything: accepted, it would let any
        # later instant through and leave the series out of time order.
        s = TimeSeries("x", {}, "event")
        s.append(1.0, 1.0)
        with pytest.raises(ValueError, match="not finite"):
            s.append(math.nan, 1.0)
        with pytest.raises(ValueError, match="precedes"):
            s.append(0.5, 1.0)
        assert [smp.t_s for smp in s.samples] == [1.0]

    @pytest.mark.parametrize("t_s", [math.inf, -math.inf])
    def test_infinite_instant_rejected(self, t_s):
        s = TimeSeries("x", {}, "event")
        with pytest.raises(ValueError, match="not finite"):
            s.append(t_s, 1.0)
        assert len(s) == 0

    def test_extend_checks_every_sample(self):
        s = TimeSeries("x", {}, "event", capacity=2)
        s.extend([(1.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
        assert list(s.samples) == [Sample(1.0, 2.0), Sample(2.0, 3.0)] and s.dropped == 1
        # A batch with a bad instant anywhere appends nothing.
        with pytest.raises(ValueError, match="not finite"):
            s.extend([(3.0, 4.0), (math.nan, 5.0)])
        with pytest.raises(ValueError, match="precedes"):
            s.extend([(3.0, 4.0), (2.5, 6.0)])
        with pytest.raises(ValueError, match="precedes"):
            s.extend([(1.5, 6.0)])
        assert list(s.samples) == [Sample(1.0, 2.0), Sample(2.0, 3.0)] and s.dropped == 1
        s.extend([(3.0, 4.0), (3.0, 5.0), (4.0, 6.0)])
        assert list(s.samples) == [Sample(3.0, 5.0), Sample(4.0, 6.0)] and s.dropped == 4

    def test_sample_is_a_plain_tuple(self):
        smp = Sample(1.0, 2.0)
        assert repr(smp) == "Sample(t_s=1.0, value=2.0)"
        assert (smp.t_s, smp.value) == tuple(smp) and smp == Sample(1.0, 2.0)

    def test_ring_bound_drops_oldest(self):
        s = TimeSeries("x", {}, "event", capacity=3)
        for i in range(5):
            s.append(float(i), float(i))
        assert len(s) == 3
        assert s.dropped == 2
        assert [smp.t_s for smp in s.samples] == [2.0, 3.0, 4.0]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            TimeSeries("x", {}, "celsius")

    def test_window_is_half_open(self):
        s = TimeSeries("x", {}, "event")
        for t in (0.0, 1.0, 2.0, 3.0):
            s.append(t, t)
        # (1.0, 3.0]: excludes the sample exactly at t_start.
        ws = s.window(3.0, 2.0)
        assert ws.count == 2
        assert ws.min == 2.0 and ws.max == 3.0

    def test_event_window_stats(self):
        s = TimeSeries("wait", {"tenant": "a"}, "event")
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        for i, v in enumerate(values):
            s.append(0.1 * (i + 1), v)
        ws = s.window(0.5, 0.5)
        assert ws.count == 5
        assert ws.sum == 15.0
        assert ws.rate == pytest.approx(10.0)
        assert ws.mean == 3.0
        assert ws.min == 1.0 and ws.max == 5.0
        assert 1.0 <= ws.p50 <= 5.0
        assert ws.p50 <= ws.p95 <= ws.p99 <= 5.0

    def test_single_sample_percentiles(self):
        s = TimeSeries("x", {}, "event")
        s.append(1.0, 42.0)
        ws = s.window(1.0, 1.0)
        assert ws.p50 == ws.p95 == ws.p99 == 42.0

    def test_counter_window_increase(self):
        s = TimeSeries("total", {}, "counter")
        for t, v in ((0.0, 0.0), (1.0, 10.0), (2.0, 25.0), (3.0, 40.0)):
            s.append(t, v)
        # Window (1, 3]: increase is 40 - 10, using the sample at the
        # window edge as the base.
        ws = s.window(3.0, 2.0)
        assert ws.increase == 30.0
        assert ws.rate == pytest.approx(15.0)
        assert math.isnan(ws.p99)

    def test_counter_window_without_base_sample(self):
        s = TimeSeries("total", {}, "counter")
        s.append(5.0, 100.0)
        s.append(6.0, 130.0)
        ws = s.window(6.0, 10.0)  # window starts before the series
        assert ws.increase == 30.0

    def test_gauge_window(self):
        s = TimeSeries("depth", {}, "gauge")
        for t, v in ((0.0, 3.0), (1.0, 7.0), (2.0, 5.0)):
            s.append(t, v)
        ws = s.window(2.0, 5.0)
        assert ws.first == 3.0 and ws.last == 5.0
        assert ws.max == 7.0

    def test_empty_window(self):
        s = TimeSeries("x", {}, "event")
        s.append(1.0, 1.0)
        ws = s.window(10.0, 1.0)
        assert ws.count == 0
        assert math.isnan(ws.min) and math.isnan(ws.p99)
        assert ws.rate == 0.0

    def test_bad_window_width(self):
        s = TimeSeries("x", {}, "event")
        with pytest.raises(ValueError, match="positive"):
            s.window(1.0, 0.0)

    @pytest.mark.parametrize("width_s", [math.nan, math.inf])
    def test_non_finite_window_width(self, width_s):
        s = TimeSeries("x", {}, "event")
        s.append(1.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            s.window(1.0, width_s)


class TestTimeSeriesRecorder:
    def test_record_creates_labeled_series(self):
        rec = TimeSeriesRecorder()
        rec.observe("waits", 1.0, 0.5, tenant="a")
        rec.observe("waits", 2.0, 0.7, tenant="b")
        assert rec.series("waits", tenant="a") is not None
        assert len(rec.series("waits", tenant="a")) == 1
        assert {s.name for s in rec.all_series()} == {"waits"}
        assert rec.total_samples() == 2
        assert rec.t_latest == 2.0

    def test_kind_conflict_rejected(self):
        rec = TimeSeriesRecorder()
        rec.record("x", 1.0, 1.0, kind="gauge")
        with pytest.raises(ValueError, match="gauge"):
            rec.record("x", 2.0, 1.0, kind="event")

    def test_window_of_missing_series_is_empty(self):
        rec = TimeSeriesRecorder()
        ws = rec.window("nope", 1.0, 1.0, tenant="a")
        assert ws.count == 0
        assert ws.labels == {"tenant": "a"}

    @pytest.mark.parametrize("width_s", [math.nan, math.inf, 0.0])
    def test_window_width_checked_for_any_series(self, width_s):
        # A missing series used to answer an empty window whatever the width.
        rec = TimeSeriesRecorder()
        rec.observe("waits", 1.0, 0.5)
        for name in ("waits", "nope"):
            with pytest.raises(ValueError, match="positive"):
                rec.window(name, 1.0, width_s)

    def test_declare_is_get_or_create(self):
        rec = TimeSeriesRecorder()
        s = rec.declare("x", "event", server="server0")
        assert rec.declare("x", "event", labels={"server": "server0"}) is s
        rec.observe("x", 1.0, 2.0, server="server0")
        assert list(s.samples) == [Sample(1.0, 2.0)]
        with pytest.raises(ValueError, match="event"):
            rec.declare("x", "gauge", server="server0")

    def test_scrape_registry(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", "hits", ("server",))
        c.labels(server="s0").inc(3)
        reg.gauge("depth").set(7)
        rec = TimeSeriesRecorder()
        n = rec.scrape(reg, 1.0)
        assert n == 2
        c.labels(server="s0").inc(2)
        rec.scrape(reg, 2.0)
        ws = rec.window("hits_total", 2.0, 1.0, server="s0")
        assert ws.kind == "counter"
        assert ws.increase == 2.0
        depth = rec.series("depth")
        assert depth.kind == "gauge"
        assert depth.samples[-1].value == 7.0

    def test_all_series_sorted(self):
        rec = TimeSeriesRecorder()
        rec.observe("b", 1.0, 1.0)
        rec.observe("a", 1.0, 1.0, z="2")
        rec.observe("a", 1.0, 1.0, z="1")
        keys = [(s.name, tuple(sorted(s.labels.items()))) for s in rec.all_series()]
        assert keys == sorted(keys)

    def test_jsonl_round_trip(self, tmp_path):
        rec = TimeSeriesRecorder()
        rng = np.random.default_rng(7)
        t = 0.0
        for _ in range(50):
            t += float(rng.exponential(0.1))
            rec.observe("waits", t, float(rng.uniform()), tenant="a")
        rec.record("depth", t, 3.0, kind="gauge")
        path = tmp_path / "series.jsonl"
        rec.write_jsonl(str(path))
        back = TimeSeriesRecorder.read_jsonl(str(path))
        assert back.to_jsonl_records() == rec.to_jsonl_records()
        # Windowed aggregates replay identically from the artifact.
        a = rec.window("waits", t, 1.0, tenant="a")
        b = back.window("waits", t, 1.0, tenant="a")
        assert (a.count, a.sum, a.p99) == (b.count, b.sum, b.p99)

    def test_default_capacity(self):
        rec = TimeSeriesRecorder()
        assert rec.capacity == DEFAULT_CAPACITY
        with pytest.raises(ValueError):
            TimeSeriesRecorder(capacity=0)
