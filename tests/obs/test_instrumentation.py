"""End-to-end instrumentation: query traces, metrics accumulation, comm
accounting, and the zero-cost-when-disabled guarantee."""

import numpy as np
import pytest

from repro.obs import MetricsRegistry, Tracer
from repro.pdc.observability import snapshot
from repro.query.ast import Condition, combine_and
from repro.query.executor import QueryEngine
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp
from tests.conftest import make_system, metric_sample


def cond(name, op, value):
    return Condition(object_name=name, op=QueryOp(op), pdc_type=PDCType.FLOAT,
                     value=value)


def build_system(rng, **kwargs):
    sysm = make_system(n_servers=4, region_size_bytes=1 << 11, **kwargs)
    sysm.create_object("energy", rng.gamma(2.0, 0.7, 1 << 12).astype(np.float32))
    sysm.create_object("x", (rng.random(1 << 12) * 300).astype(np.float32))
    sysm.build_index("energy")
    sysm.build_index("x")
    return sysm


NODE = combine_and(
    Condition("energy", QueryOp.GT, PDCType.FLOAT, 2.0),
    Condition("x", QueryOp.LT, PDCType.FLOAT, 150.0),
)


class TestZeroCostWhenDisabled:
    def test_noop_tracer_adds_zero_simulated_time_pdc_hi(self):
        """Regression: tracing (enabled OR disabled) never changes
        simulated query cost — spans only read the clocks."""
        base = build_system(np.random.default_rng(0))
        traced = build_system(np.random.default_rng(0))
        traced.set_tracer(Tracer())

        res_base = QueryEngine(base).execute(NODE, strategy=Strategy.HIST_INDEX)
        res_traced = QueryEngine(traced).execute(NODE, strategy=Strategy.HIST_INDEX)

        assert res_traced.nhits == res_base.nhits
        assert res_traced.elapsed_s == res_base.elapsed_s
        for sb, st in zip(base.servers, traced.servers):
            assert st.clock.now == sb.clock.now
            assert st.clock.breakdown() == sb.clock.breakdown()

    def test_noop_is_default_and_produces_no_trace(self):
        sysm = build_system(np.random.default_rng(0))
        assert sysm.tracer.enabled is False
        res = QueryEngine(sysm).execute(NODE)
        assert res.trace is None


class TestQueryTrace:
    @pytest.fixture
    def traced(self):
        sysm = build_system(np.random.default_rng(1))
        sysm.set_tracer(Tracer())
        return sysm

    def test_span_hierarchy_planner_to_storage(self, traced):
        res = QueryEngine(traced).execute(NODE, strategy=Strategy.HISTOGRAM)
        tr = traced.tracer
        assert res.trace is tr.spans[0]
        root = res.trace
        assert root.name == "query" and root.parent_id is None
        names = {s.name for s in tr.subtree(root)}
        assert "plan" in names
        assert any(n.startswith("conjunct") for n in names)
        assert any(n.startswith("eval:server") for n in names)
        assert any(n.startswith("read:") for n in names)
        # conjunct → eval → read chain is properly nested.
        read = next(s for s in tr.spans if s.name.startswith("read:"))
        ev = next(s for s in tr.spans if s.span_id == read.parent_id)
        assert ev.name.startswith("eval:server")
        conj = next(s for s in tr.spans if s.span_id == ev.parent_id)
        assert conj.name.startswith("conjunct")

    def test_index_strategy_emits_index_read_spans(self, traced):
        QueryEngine(traced).execute(NODE, strategy=Strategy.HIST_INDEX)
        cats = {s.category for s in traced.tracer.spans}
        assert "index_read" in cats

    def test_spans_keyed_to_simulated_clocks(self, traced):
        res = QueryEngine(traced).execute(NODE, strategy=Strategy.HISTOGRAM)
        root = res.trace
        assert root.track == "client"
        assert root.duration_s == pytest.approx(res.elapsed_s)
        server_tracks = {
            s.track for s in traced.tracer.spans if s.name.startswith("eval:")
        }
        assert server_tracks <= {f"server{i}" for i in range(4)}
        for s in traced.tracer.spans:
            assert s.end_s is not None and s.end_s >= s.start_s

    def test_chrome_export_of_real_query(self, traced, tmp_path):
        import json

        QueryEngine(traced).execute(NODE, strategy=Strategy.HIST_INDEX)
        path = tmp_path / "q.json"
        traced.tracer.write_chrome(str(path))
        doc = json.loads(path.read_text())
        x = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["cat"] for e in x} >= {"query", "plan", "server_eval"}

    def test_auto_strategy_records_plan_decision(self, traced):
        res = QueryEngine(traced).execute(NODE, strategy=Strategy.AUTO)
        events = [e for e in traced.tracer.events if e.name == "plan_decision"]
        assert len(events) == 1
        assert events[0].attrs["strategy"] == res.strategy.name


class TestQueryMetrics:
    def test_query_counters_accumulate(self):
        reg = MetricsRegistry()
        sysm = build_system(np.random.default_rng(2), metrics=reg)
        engine = QueryEngine(sysm)
        engine.execute(NODE, strategy=Strategy.HISTOGRAM)
        engine.execute(NODE, strategy=Strategy.HIST_INDEX)

        assert reg.total("pdc_queries_total") == 2
        assert metric_sample(reg, "pdc_queries_total", strategy="HISTOGRAM") == 1
        assert metric_sample(reg, "pdc_queries_total", strategy="HIST_INDEX") == 1
        assert reg.total("pdc_query_regions_read_total") > 0
        assert reg.total("pdc_query_index_reads_total") > 0
        assert reg.total("pdc_cache_lookups_total") > 0
        assert reg.total("pdc_pfs_bytes_written_virtual_total") > 0
        assert metric_sample(reg, "pdc_query_sim_seconds_count") == 2
        assert metric_sample(reg, "pdc_query_sim_seconds_sum") > 0

    def test_second_query_hits_cache_in_metrics(self):
        reg = MetricsRegistry()
        sysm = build_system(np.random.default_rng(2), metrics=reg)
        engine = QueryEngine(sysm)
        engine.execute(NODE, strategy=Strategy.HISTOGRAM)
        hits_before = metric_sample(
            reg, "pdc_cache_lookups_total", server="server0", result="hit"
        )
        engine.execute(NODE, strategy=Strategy.HISTOGRAM)
        hits_after = metric_sample(
            reg, "pdc_cache_lookups_total", server="server0", result="hit"
        )
        assert hits_after > hits_before

    def test_planner_decision_metric(self):
        reg = MetricsRegistry()
        sysm = build_system(np.random.default_rng(2), metrics=reg)
        res = QueryEngine(sysm).execute(NODE, strategy=Strategy.AUTO)
        assert metric_sample(reg, "pdc_plans_total", strategy=res.strategy.name) == 1

    def test_snapshot_surfaces_registry_totals(self):
        reg = MetricsRegistry()
        sysm = build_system(np.random.default_rng(2), metrics=reg)
        QueryEngine(sysm).execute(NODE)
        snap = snapshot(sysm)
        assert snap.metrics["pdc_queries_total"] == 1
        assert snap.metrics["pdc_cache_lookups_total"] > 0


class TestCacheHitRateAggregation:
    def test_weighted_by_lookups_not_entries(self):
        """The satellite bug fix: a server with one lucky lookup must not
        dominate servers that answered thousands."""
        sysm = build_system(np.random.default_rng(3))
        engine = QueryEngine(sysm)
        for _ in range(3):
            engine.execute(NODE, strategy=Strategy.HISTOGRAM)
        snap = snapshot(sysm)
        hits = sum(s.cache.stats.hits for s in sysm.servers)
        lookups = sum(
            s.cache.stats.hits + s.cache.stats.misses for s in sysm.servers
        )
        assert lookups > 0
        assert snap.aggregate_cache_hit_rate == pytest.approx(hits / lookups)

    def test_busy_excludes_comm(self):
        sysm = build_system(np.random.default_rng(3))
        QueryEngine(sysm).execute(NODE)
        snap = snapshot(sysm)
        for s in snap.servers:
            idle = s.time_breakdown.get("wait", 0.0) + s.time_breakdown.get(
                "comm", 0.0
            )
            assert s.busy_s == pytest.approx(sum(s.time_breakdown.values()) - idle)


class TestCommAccounting:
    def test_query_produces_comm_time(self):
        sysm = build_system(np.random.default_rng(4))
        QueryEngine(sysm).execute(NODE)
        total_comm = sum(
            c.breakdown().get("comm", 0.0) for c in sysm.all_clocks()
        )
        assert total_comm > 0.0
