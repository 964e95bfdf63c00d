"""Deployment observability snapshots and reports."""

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.pdc.observability import _fmt_bytes, report, snapshot
from repro.query.ast import Condition
from repro.query.executor import QueryEngine
from repro.types import PDCType, QueryOp
from tests.conftest import make_system


def cond(name, op, value):
    return Condition(object_name=name, op=QueryOp(op), pdc_type=PDCType.FLOAT, value=value)


@pytest.fixture
def env(rng):
    sysm = make_system(n_servers=4, region_size_bytes=1 << 11)
    sysm.create_object("energy", rng.gamma(2.0, 0.7, 1 << 12).astype(np.float32))
    sysm.build_index("energy")
    sysm.build_sorted_replica("energy")
    return sysm


class TestSnapshot:
    def test_inventory(self, env):
        snap = snapshot(env)
        assert snap.n_servers == snap.n_alive == 4
        assert snap.n_objects == 1
        assert snap.indexed_objects == ["energy"]
        assert snap.replicas == ["energy"]
        assert snap.metadata_records == 1
        assert snap.pfs_files > 0 and snap.pfs_bytes_stored > 0

    def test_counters_move_with_queries(self, env):
        before = snapshot(env)
        QueryEngine(env).execute(cond("energy", ">", 1.0))
        after = snapshot(env)
        assert after.elapsed_s > before.elapsed_s
        assert sum(s.busy_s for s in after.servers) > sum(
            s.busy_s for s in before.servers
        )
        assert any(s.cache_entries > 0 for s in after.servers)

    def test_failure_visible(self, env):
        env.fail_server(2)
        snap = snapshot(env)
        assert snap.n_alive == 3
        assert not snap.servers[2].alive

    def test_load_imbalance_defined(self, env):
        snap = snapshot(env)
        assert snap.load_imbalance >= 1.0
        QueryEngine(env).execute(cond("energy", ">", 1.0))
        assert snapshot(env).load_imbalance >= 1.0

    def test_snapshot_has_no_side_effects(self, env):
        QueryEngine(env).execute(cond("energy", ">", 1.0))
        t = max(c.now for c in env.all_clocks())
        snapshot(env)
        assert max(c.now for c in env.all_clocks()) == t


class TestAggregateCacheHitRate:
    def _server(self, sid, hits, lookups, entries):
        from repro.pdc.observability import ServerStats

        return ServerStats(
            server_id=sid, alive=True, sim_time_s=0.0, busy_s=0.0,
            time_breakdown={}, cache_entries=entries, cache_used_vbytes=0.0,
            cache_hit_rate=hits / lookups if lookups else 0.0,
            objects_with_metadata=0, cache_hits=hits, cache_lookups=lookups,
        )

    def _snap(self, servers):
        from repro.pdc.observability import SystemSnapshot

        return SystemSnapshot(
            n_servers=len(servers), n_alive=len(servers), strategy="histogram",
            virtual_scale=1.0, elapsed_s=0.0, servers=servers, n_objects=0,
            n_regions_total=0, indexed_objects=[], replicas=[], pfs_files=0,
            pfs_bytes_stored=0, metadata_records=0,
        )

    def test_weighted_by_lookup_counts(self):
        # One server answered 1 lookup (100% hits) while holding many
        # entries; the other answered 999 lookups all missing.  Entry-count
        # weighting would report ~50%; the true fleet rate is 0.1%.
        snap = self._snap([
            self._server(0, hits=1, lookups=1, entries=500),
            self._server(1, hits=0, lookups=999, entries=1),
        ])
        assert snap.aggregate_cache_hit_rate == pytest.approx(1 / 1000)

    def test_no_lookups_is_zero(self):
        snap = self._snap([self._server(0, 0, 0, 0)])
        assert snap.aggregate_cache_hit_rate == 0.0

    def test_matches_exact_counters_after_queries(self, env):
        engine = QueryEngine(env)
        for _ in range(2):
            engine.execute(cond("energy", ">", 1.0))
        snap = snapshot(env)
        hits = sum(s.cache.stats.hits for s in env.servers)
        lookups = sum(s.cache.stats.hits + s.cache.stats.misses for s in env.servers)
        assert snap.aggregate_cache_hit_rate == pytest.approx(hits / lookups)


class TestReport:
    def test_renders_key_facts(self, env):
        QueryEngine(env).execute(cond("energy", ">", 1.0))
        text = report(env)
        assert "4/4 servers alive" in text
        assert "energy" in text
        assert "server" in text and "cache" in text

    def test_reports_the_bytes_queries_read(self, rng):
        """The server share walk is the one read site; the report shows
        what it read."""
        sysm = make_system(n_servers=4, region_size_bytes=1 << 11, metrics=MetricsRegistry())
        sysm.create_object("energy", rng.gamma(2.0, 0.7, 1 << 12).astype(np.float32))
        res = QueryEngine(sysm).execute(cond("energy", ">", 1.0))
        assert res.bytes_read_virtual > 0
        metrics = snapshot(sysm).metrics
        assert metrics["pdc_query_bytes_read_virtual_total"] == res.bytes_read_virtual
        (line,) = [ln for ln in report(sysm).splitlines() if ln.startswith("queries:")]
        assert line.endswith(f", {_fmt_bytes(res.bytes_read_virtual)} virtual read")

    def test_marks_failed_servers(self, env):
        env.fail_server(1)
        assert "[FAILED]" in report(env, top_servers=4)

    def test_truncates_long_fleets(self, rng):
        sysm = make_system(n_servers=16)
        sysm.create_object("o", rng.random(1 << 12).astype(np.float32))
        text = report(sysm, top_servers=4)
        assert "and 12 more" in text
