"""Critical-path/skew profiler and flamegraph export."""

import json

import pytest

from repro.obs import Tracer
from repro.obs.profiler import (
    profile,
    render_profile,
    to_collapsed,
    to_speedscope,
    write_collapsed,
    write_speedscope,
)


def _rec(id, parent, name, track, t0, t1, cat="work"):
    return {
        "type": "span", "id": id, "parent": parent, "name": name,
        "cat": cat, "track": track, "t0": t0, "t1": t1, "attrs": {},
    }


@pytest.fixture
def synthetic():
    """A hand-built trace with known busy/skew/critical-path answers.

    client: query [0, 10]
      server0: scan_a [0, 4], scan_b [2, 6] (overlap -> busy union 6)
        scan_b -> sub [5, 6]
      server1: scan_c [0, 2] (busy 2)
    """
    return Tracer.from_jsonl_records([
        _rec(1, None, "query", "client", 0.0, 10.0, cat="query"),
        _rec(2, 1, "scan_a", "server0", 0.0, 4.0),
        _rec(3, 1, "scan_b", "server0", 2.0, 6.0),
        _rec(4, 1, "scan_c", "server1", 0.0, 2.0),
        _rec(5, 3, "sub", "server0", 5.0, 6.0),
    ])


class TestProfile:
    def test_window_and_span_count(self, synthetic):
        rep = profile(synthetic)
        assert rep.t_start == 0.0 and rep.t_end == 10.0
        assert rep.wall_s == pytest.approx(10.0)
        assert rep.span_count == 5

    def test_busy_union_counts_overlap_once(self, synthetic):
        rep = profile(synthetic)
        busy = {t.track: t.busy_s for t in rep.tracks}
        # [0,4] ∪ [2,6] ∪ [5,6] = [0,6]: 6 s, not 4+4+1.
        assert busy["server0"] == pytest.approx(6.0)
        assert busy["server1"] == pytest.approx(2.0)
        assert busy["client"] == pytest.approx(10.0)

    def test_utilization_against_wall(self, synthetic):
        rep = profile(synthetic)
        util = {t.track: t.utilization for t in rep.tracks}
        assert util["client"] == pytest.approx(1.0)
        assert util["server0"] == pytest.approx(0.6)
        assert util["server1"] == pytest.approx(0.2)

    def test_imbalance_and_stragglers(self, synthetic):
        rep = profile(synthetic)
        # max 6 / mean (6+2)/2 = 1.5; client excluded from skew.
        assert rep.imbalance_ratio == pytest.approx(1.5)
        assert [t.track for t in rep.stragglers] == ["server0", "server1"]

    def test_critical_path_descends_last_ending_child(self, synthetic):
        rep = profile(synthetic)
        assert [s.name for s in rep.critical_path] == [
            "query", "scan_b", "sub"
        ]
        # Root start (0) to the path tail's end (sub closes at 6).
        assert rep.critical_path_s == pytest.approx(6.0)

    def test_root_restricts_to_subtree(self, synthetic):
        scan_b = next(s for s in synthetic.spans if s.name == "scan_b")
        rep = profile(synthetic, root=scan_b)
        assert rep.span_count == 2
        assert [s.name for s in rep.critical_path] == ["scan_b", "sub"]
        assert rep.wall_s == pytest.approx(4.0)

    def test_empty_trace(self):
        rep = profile(Tracer())
        assert rep.span_count == 0 and rep.wall_s == 0.0
        assert rep.tracks == [] and rep.critical_path == []

    def test_render_mentions_everything(self, synthetic):
        text = render_profile(profile(synthetic))
        assert "per-clock utilization" in text
        assert "imbalance ratio" in text and "1.500" in text
        assert "straggler ranking" in text
        assert "critical path" in text and "scan_b" in text


class TestFlamegraphs:
    def test_collapsed_self_time(self, synthetic):
        lines = dict(
            line.rsplit(" ", 1) for line in to_collapsed(synthetic)
        )
        # query self = 10 - (4 + 4 + 2) = 0 -> omitted entirely.
        assert "query" not in lines
        assert int(lines["query;scan_a"]) == 4_000_000
        assert int(lines["query;scan_b"]) == 3_000_000  # 4 - 1 (sub)
        assert int(lines["query;scan_b;sub"]) == 1_000_000
        assert int(lines["query;scan_c"]) == 2_000_000

    def test_write_collapsed(self, synthetic, tmp_path):
        path = tmp_path / "flame.collapsed"
        write_collapsed(synthetic, str(path))
        for line in path.read_text().splitlines():
            stack, value = line.rsplit(" ", 1)
            assert stack and int(value) > 0

    @pytest.fixture
    def nested(self):
        # Speedscope needs proper open/close nesting per track, which is
        # what live clocks produce (time only moves forward); partial
        # overlap like the `synthetic` fixture's cannot occur live.
        return Tracer.from_jsonl_records([
            _rec(1, None, "query", "client", 0.0, 10.0, cat="query"),
            _rec(2, 1, "scan_a", "server0", 0.0, 4.0),
            _rec(3, 2, "sub", "server0", 1.0, 3.0),
            _rec(4, 1, "scan_b", "server0", 4.0, 6.0),
            _rec(5, 1, "scan_c", "server1", 0.0, 2.0),
        ])

    def test_speedscope_schema(self, nested):
        doc = to_speedscope(nested, name="t")
        assert doc["$schema"].startswith("https://www.speedscope.app")
        assert [p["name"] for p in doc["profiles"]] == [
            "client", "server0", "server1"
        ]
        nframes = len(doc["shared"]["frames"])
        for p in doc["profiles"]:
            assert p["startValue"] <= p["endValue"]
            assert p["type"] == "evented" and p["unit"] == "seconds"
            opens = [e for e in p["events"] if e["type"] == "O"]
            closes = [e for e in p["events"] if e["type"] == "C"]
            assert len(opens) == len(closes)
            for e in p["events"]:
                assert 0 <= e["frame"] < nframes
            # Event times never go backwards.
            ats = [e["at"] for e in p["events"]]
            assert ats == sorted(ats)

    def test_write_speedscope_is_json(self, synthetic, tmp_path):
        path = tmp_path / "prof.speedscope.json"
        write_speedscope(synthetic, str(path))
        doc = json.loads(path.read_text())
        assert doc["profiles"]


class TestOnRealQuery:
    def test_profile_of_demo_query(self):
        from repro.scenarios import demo_deployment
        from repro.query.executor import QueryEngine
        from repro.strategies import Strategy

        system, node, truth = demo_deployment()
        tracer = Tracer()
        system.set_tracer(tracer)
        res = QueryEngine(system).execute(node, strategy=Strategy.HIST_INDEX)
        assert res.nhits == truth
        rep = profile(tracer, res.trace)
        assert rep.span_count > 0
        tracks = {t.track for t in rep.tracks}
        assert "client" in tracks
        assert any(t.startswith("server") for t in tracks)
        assert rep.imbalance_ratio >= 1.0
        assert rep.critical_path[0] is res.trace
        assert rep.critical_path_s <= rep.wall_s + 1e-12
        assert to_collapsed(tracer, res.trace)
