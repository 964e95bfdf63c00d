"""Tracer span invariants and Chrome trace export."""

import json

import pytest

from repro.obs import NOOP_TRACER, NoopTracer, Tracer
from repro.storage.costmodel import SimClock


@pytest.fixture
def clock():
    return SimClock("client")


class TestSpanNesting:
    def test_parenting_follows_call_order(self, clock):
        tr = Tracer()
        with tr.span("outer", clock):
            with tr.span("mid", clock):
                with tr.span("inner", clock):
                    pass
            with tr.span("sibling", clock):
                pass
        outer, mid, inner, sibling = tr.spans
        assert outer.parent_id is None
        assert mid.parent_id == outer.span_id
        assert inner.parent_id == mid.span_id
        assert sibling.parent_id == outer.span_id

    def test_cross_track_parenting(self, clock):
        server = SimClock("server0")
        tr = Tracer()
        with tr.span("query", clock):
            with tr.span("read", server):
                server.charge(0.5, "pfs_read")
        query, read = tr.spans
        assert read.parent_id == query.span_id
        assert query.track == "client" and read.track == "server0"

    def test_span_covers_charged_time(self, clock):
        tr = Tracer()
        with tr.span("work", clock):
            clock.charge(0.25, "scan")
            clock.charge(0.25, "scan")
        (sp,) = tr.spans
        assert sp.start_s == 0.0
        assert sp.end_s == pytest.approx(0.5)
        assert sp.duration_s == pytest.approx(0.5)

    def test_spans_on_one_track_nest_in_time(self, clock):
        tr = Tracer()
        with tr.span("outer", clock):
            clock.charge(0.1, "a")
            with tr.span("inner", clock):
                clock.charge(0.2, "b")
            clock.charge(0.1, "c")
        outer, inner = tr.spans
        assert outer.start_s <= inner.start_s
        assert inner.end_s <= outer.end_s

    def test_sequential_spans_ordered(self, clock):
        tr = Tracer()
        for i in range(3):
            with tr.span(f"s{i}", clock):
                clock.charge(0.1, "x")
        ends = [s.end_s for s in tr.spans]
        starts = [s.start_s for s in tr.spans]
        assert starts == sorted(starts)
        assert all(e >= s for s, e in zip(starts, ends))
        assert starts[1] == ends[0] and starts[2] == ends[1]

    def test_exception_still_closes_span(self, clock):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("boom", clock):
                clock.charge(0.1, "x")
                raise RuntimeError("boom")
        (sp,) = tr.spans
        assert sp.end_s == pytest.approx(0.1)
        assert tr._open == []

    def test_attrs_and_set(self, clock):
        tr = Tracer()
        with tr.span("s", clock, category="storage_read", bytes=100) as h:
            h.set(hit=True)
        (sp,) = tr.spans
        assert sp.attrs == {"bytes": 100, "hit": True}
        assert sp.category == "storage_read"

    def test_subtree_and_summary(self, clock):
        tr = Tracer()
        with tr.span("root", clock, category="query"):
            with tr.span("a", clock, category="scan"):
                clock.charge(1.0, "scan")
            with tr.span("b", clock, category="scan"):
                clock.charge(2.0, "scan")
        with tr.span("other", clock, category="query"):
            clock.charge(5.0, "x")
        root = tr.spans[0]
        assert len(tr.subtree(root)) == 3
        summary = tr.summary(root)
        assert summary["scan"] == pytest.approx(3.0)
        assert summary["query"] == pytest.approx(3.0)
        assert tr.summary()["query"] == pytest.approx(8.0)


class TestNoopTracer:
    def test_disabled_and_inert(self, clock):
        assert NOOP_TRACER.enabled is False
        assert isinstance(NOOP_TRACER, NoopTracer)
        with NOOP_TRACER.span("s", clock, anything=1) as h:
            h.set(more=2)
        assert h.span is None
        assert NOOP_TRACER.instant("e", clock) is None
        assert clock.now == 0.0

    def test_singleton_handle(self, clock):
        a = NOOP_TRACER.span("a", clock)
        b = NOOP_TRACER.span("b", clock)
        assert a is b


class TestChromeExport:
    def _trace(self):
        client = SimClock("client")
        server = SimClock("server0")
        tr = Tracer()
        with tr.span("query", client, category="query"):
            with tr.span("read", server, category="storage_read", bytes=42):
                server.charge(0.001, "pfs_read")
            tr.instant("mark", client, note="hi")
            client.charge(0.002, "net")
        return tr

    def test_schema_round_trip(self, tmp_path):
        tr = self._trace()
        path = tmp_path / "trace.json"
        tr.write_chrome(str(path))
        doc = json.loads(path.read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert isinstance(events, list)
        for e in events:
            assert e["ph"] in ("X", "M", "i")
            assert "name" in e and "pid" in e
            if e["ph"] == "X":
                assert e["ts"] >= 0 and e["dur"] >= 0
                assert isinstance(e["args"], dict)

    def test_x_events_and_metadata(self):
        doc = self._trace().to_chrome_trace()
        events = doc["traceEvents"]
        x = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        inst = [e for e in events if e["ph"] == "i"]
        assert {e["name"] for e in x} == {"query", "read"}
        thread_names = {
            e["args"]["name"] for e in meta if e["name"] == "thread_name"
        }
        assert thread_names == {"client", "server0"}
        assert any(e["name"] == "process_name" for e in meta)
        assert len(inst) == 1 and inst[0]["args"] == {"note": "hi"}

    def test_timestamps_in_microseconds(self):
        doc = self._trace().to_chrome_trace()
        read = next(e for e in doc["traceEvents"] if e.get("name") == "read")
        assert read["dur"] == pytest.approx(0.001 * 1e6)

    def test_private_attrs_filtered(self):
        doc = self._trace().to_chrome_trace()
        for e in doc["traceEvents"]:
            for key in e.get("args", {}):
                assert not key.startswith("__")
        # JSON-serializable end to end (no SimClock leaked into args).
        json.dumps(doc)

    def test_jsonl_round_trip(self, tmp_path):
        tr = self._trace()
        path = tmp_path / "trace.jsonl"
        tr.write_jsonl(str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        spans = [r for r in records if r["type"] == "span"]
        events = [r for r in records if r["type"] == "event"]
        assert {r["name"] for r in spans} == {"query", "read"}
        assert len(events) == 1
        read = next(r for r in spans if r["name"] == "read")
        assert read["parent"] is not None and read["t1"] >= read["t0"]


class TestJsonlImport:
    """``Tracer.read_jsonl`` must rebuild everything the analysis layer
    reads: span ids/parents (tree), tracks, times, categories, attrs,
    and instants."""

    def _trace(self):
        client = SimClock("client")
        server = SimClock("server0")
        tr = Tracer()
        with tr.span("query", client, category="query"):
            with tr.span("read", server, category="storage_read", bytes=42):
                server.charge(0.001, "pfs_read")
            with tr.span("scan", server, category="scan"):
                server.charge(0.002, "scan")
            tr.instant("mark", client, note="hi")
            client.charge(0.003, "net")
        return tr

    @staticmethod
    def _key(s):
        return (
            s.span_id, s.parent_id, s.name, s.category, s.track,
            s.start_s, s.end_s, s.attrs,
        )

    def test_write_read_round_trip(self, tmp_path):
        tr = self._trace()
        path = tmp_path / "t.jsonl"
        tr.write_jsonl(str(path))
        tr2 = Tracer.read_jsonl(str(path))
        assert [self._key(s) for s in tr2.spans] == [
            self._key(s) for s in tr.spans
        ]
        assert [self._key(e) for e in tr2.events] == [
            self._key(e) for e in tr.events
        ]

    def test_loaded_tree_and_summary_match_live(self, tmp_path):
        tr = self._trace()
        path = tmp_path / "t.jsonl"
        tr.write_jsonl(str(path))
        tr2 = Tracer.read_jsonl(str(path))
        root2 = tr2.spans[0]
        assert len(tr2.subtree(root2)) == 3
        live = tr.summary()
        loaded = tr2.summary()
        assert set(live) == set(loaded)
        for cat in live:
            assert loaded[cat] == pytest.approx(live[cat])

    def test_new_spans_get_fresh_ids_after_load(self, clock):
        tr = self._trace()
        tr2 = Tracer.from_jsonl_records(tr.to_jsonl_records())
        old_ids = {s.span_id for s in tr2.spans + tr2.events}
        with tr2.span("later", clock):
            pass
        assert tr2.spans[-1].span_id not in old_ids

    def test_chrome_round_trip_preserves_span_times(self, tmp_path):
        tr = self._trace()
        path = tmp_path / "t.json"
        tr.write_chrome(str(path))
        doc = json.loads(path.read_text())
        x = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        for s in tr.spans:
            assert x[s.name]["ts"] == pytest.approx(s.start_s * 1e6)
            assert x[s.name]["dur"] == pytest.approx(s.duration_s * 1e6)


class TestSummaryNoDoubleCount:
    """A span nested under a same-category span is covered by its
    ancestor's duration and must not be counted again."""

    def test_directly_nested_same_category(self, clock):
        tr = Tracer()
        with tr.span("outer", clock, category="storage_read"):
            clock.charge(1.0, "a")
            with tr.span("inner", clock, category="storage_read"):
                clock.charge(2.0, "b")
        assert tr.summary()["storage_read"] == pytest.approx(3.0)

    def test_transitively_nested_same_category(self, clock):
        tr = Tracer()
        with tr.span("outer", clock, category="scan"):
            with tr.span("mid", clock, category="storage_read"):
                with tr.span("inner", clock, category="scan"):
                    clock.charge(2.0, "b")
            clock.charge(1.0, "a")
        summary = tr.summary()
        assert summary["scan"] == pytest.approx(3.0)
        assert summary["storage_read"] == pytest.approx(2.0)

    def test_same_category_siblings_both_count(self, clock):
        tr = Tracer()
        with tr.span("root", clock, category="query"):
            with tr.span("a", clock, category="scan"):
                clock.charge(1.0, "x")
            with tr.span("b", clock, category="scan"):
                clock.charge(2.0, "x")
        assert tr.summary()["scan"] == pytest.approx(3.0)

    def test_subtree_scope_respects_shadowing(self, clock):
        tr = Tracer()
        with tr.span("root", clock, category="query"):
            with tr.span("child", clock, category="query"):
                clock.charge(1.0, "x")
            clock.charge(0.5, "y")
        root = tr.spans[0]
        # Over the subtree the child is shadowed by the root...
        assert tr.summary(root)["query"] == pytest.approx(1.5)
        # ...but scoped to the child alone it is its own root.
        child = tr.spans[1]
        assert tr.summary(child)["query"] == pytest.approx(1.0)
