"""Exposition: OpenMetrics rendering, alert JSONL, and --watch replay."""

import json

import pytest

from repro.obs.export import (
    read_alerts_jsonl,
    render_openmetrics,
    replay_frames,
    write_alerts_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLO, SLOMonitor
from repro.obs.timeseries import TimeSeriesRecorder
from repro.scenarios import demo_monitor_run


@pytest.fixture(scope="module")
def run():
    return demo_monitor_run(requests=90)


class TestOpenMetrics:
    def test_ends_with_eof(self, run):
        text = render_openmetrics(
            registry=run.system.metrics,
            recorder=run.monitor.recorder,
            slo_monitor=run.monitor.slo,
            t_end=run.t_end,
        )
        assert text.endswith("# EOF")
        assert text.count("# EOF") == 1

    def test_contains_all_three_sections(self, run):
        text = render_openmetrics(
            registry=run.system.metrics,
            recorder=run.monitor.recorder,
            slo_monitor=run.monitor.slo,
            t_end=run.t_end,
        )
        assert "pdc_service_requests_total{" in text  # cumulative
        assert ":window_rate{" in text  # windowed series
        assert "pdc_slo_burn_rate{" in text  # SLO gauges
        assert 'window="fast"' in text and 'window="slow"' in text

    def test_sources_optional(self):
        assert render_openmetrics() == "# EOF"
        rec = TimeSeriesRecorder()
        rec.observe("x", 1.0, 2.0)
        text = render_openmetrics(recorder=rec, t_end=1.0)
        assert "x:window_rate 20" in text  # one event in the 0.05 s window

    def test_label_escaping_in_windowed_series(self):
        rec = TimeSeriesRecorder()
        rec.observe("x", 1.0, 2.0, labels={"q": 'say "hi"\\'})
        text = render_openmetrics(recorder=rec, t_end=1.0)
        assert r'q="say \"hi\"\\"' in text

    def test_deterministic(self, run):
        kwargs = dict(
            registry=run.system.metrics,
            recorder=run.monitor.recorder,
            slo_monitor=run.monitor.slo,
            t_end=run.t_end,
        )
        assert render_openmetrics(**kwargs) == render_openmetrics(**kwargs)


class TestAlertJsonl:
    def test_round_trip(self, run, tmp_path):
        path = str(tmp_path / "alerts.jsonl")
        write_alerts_jsonl(run.alerts, path)
        back = read_alerts_jsonl(path)
        assert back == run.alerts
        # Byte-determinism: rewriting produces the identical file.
        path2 = str(tmp_path / "alerts2.jsonl")
        write_alerts_jsonl(back, path2)
        assert open(path).read() == open(path2).read()

    def test_records_are_canonical_json(self, run, tmp_path):
        path = str(tmp_path / "alerts.jsonl")
        write_alerts_jsonl(run.alerts, path)
        with open(path) as f:
            for line in f:
                rec = json.loads(line)
                assert list(rec) == sorted(rec)


class TestReplay:
    def test_frames_cover_run_and_show_alerts(self, run):
        frames = list(
            replay_frames(run.monitor.recorder, run.alerts, step_s=0.01)
        )
        assert frames
        text = "\n".join(frames)
        # Every transition appears exactly once across the replay.
        assert text.count("ALERT FIRE") == sum(
            a.kind == "fire" for a in run.alerts
        )
        assert text.count("ALERT CLEAR") == sum(
            a.kind == "clear" for a in run.alerts
        )
        # The final frame reports nothing left firing.
        assert "firing: none" in frames[-1]

    def test_replay_from_artifacts_matches_live(self, run, tmp_path):
        """The --watch workflow: series + alerts JSONL alone reproduce
        the frames byte for byte."""
        series_path = str(tmp_path / "series.jsonl")
        alerts_path = str(tmp_path / "alerts.jsonl")
        run.monitor.recorder.write_jsonl(series_path)
        write_alerts_jsonl(run.alerts, alerts_path)
        live = list(
            replay_frames(run.monitor.recorder, run.alerts, step_s=0.02)
        )
        replayed = list(
            replay_frames(
                TimeSeriesRecorder.read_jsonl(series_path),
                read_alerts_jsonl(alerts_path),
                step_s=0.02,
            )
        )
        assert replayed == live

    def test_bad_step(self, run):
        with pytest.raises(ValueError):
            list(replay_frames(run.monitor.recorder, [], step_s=0.0))


class TestSLOGauges:
    def test_firing_rendered_as_one(self):
        mon = SLOMonitor(
            (SLO(name="s", tenant="*", sli="shed", objective=0.9,
                 fast_window_s=1.0, slow_window_s=1.0, slow_burn=100.0),)
        )
        mon.observe(0.5, "a", "shed")
        text = render_openmetrics(slo_monitor=mon)
        assert 'pdc_slo_firing{slo="s",tenant="*",window="fast"} 1' in text
        assert 'pdc_slo_firing{slo="s",tenant="*",window="slow"} 0' in text
