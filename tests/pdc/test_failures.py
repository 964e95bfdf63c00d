"""Fault injection: server failures and recovery.

Region payloads live on the PFS and metadata is re-distributable, so
queries must keep returning exact answers when servers crash — at
degraded speed (lost caches, fewer workers), which the simulated clocks
should show.
"""

import numpy as np
import pytest

from repro.errors import PDCError
from repro.query.ast import Condition, combine_and
from repro.query.executor import QueryEngine
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp
from tests.conftest import make_system


def cond(name, op, value):
    return Condition(object_name=name, op=QueryOp(op), pdc_type=PDCType.FLOAT, value=value)


@pytest.fixture
def env(rng):
    sysm = make_system(n_servers=4, region_size_bytes=1 << 11)
    e = rng.gamma(2.0, 0.7, 1 << 13).astype(np.float32)
    x = (rng.random(1 << 13) * 300).astype(np.float32)
    sysm.create_object("energy", e)
    sysm.create_object("x", x)
    return sysm, e, x


class TestFailSemantics:
    def test_queries_exact_after_failure(self, env):
        sysm, e, x = env
        engine = QueryEngine(sysm)
        node = combine_and(cond("energy", ">", 2.0), cond("x", "<", 150.0))
        truth = int(((e > 2.0) & (x < 150.0)).sum())
        assert engine.execute(node).nhits == truth
        sysm.fail_server(1)
        res = engine.execute(node, want_selection=True)
        assert res.nhits == truth
        assert np.array_equal(
            res.selection.coords, np.flatnonzero((e > 2.0) & (x < 150.0))
        )

    def test_all_strategies_survive_failure(self, env):
        sysm, e, _ = env
        sysm.build_index("energy")
        sysm.build_sorted_replica("energy", ["x"])
        sysm.fail_server(0)
        sysm.fail_server(2)
        truth = int((e > 2.5).sum())
        engine = QueryEngine(sysm)
        for strat in (Strategy.FULL_SCAN, Strategy.HISTOGRAM, Strategy.HIST_INDEX, Strategy.SORT_HIST):
            assert engine.execute(cond("energy", ">", 2.5), strategy=strat).nhits == truth

    def test_failed_server_gets_no_work(self, env):
        sysm, _, _ = env
        engine = QueryEngine(sysm)
        sysm.fail_server(1)
        t_before = sysm.servers[1].clock.now
        engine.execute(cond("energy", ">", 1.0))
        # Its clock only moves via the end-of-query barrier (waiting), not
        # by doing work.
        breakdown = sysm.servers[1].clock.breakdown()
        worked = sum(v for k, v in breakdown.items() if k != "wait")
        assert worked == 0.0

    def test_failure_loses_caches(self, env):
        sysm, _, _ = env
        engine = QueryEngine(sysm)
        engine.execute(cond("energy", ">", 1.0))
        assert len(sysm.servers[1].cache) > 0
        sysm.fail_server(1)
        assert len(sysm.servers[1].cache) == 0

    def test_degraded_performance_with_fewer_servers(self, env):
        sysm, _, _ = env
        engine = QueryEngine(sysm)
        healthy = engine.execute(cond("energy", ">", 0.5)).elapsed_s
        sysm.fail_server(1)
        sysm.fail_server(2)
        sysm.fail_server(3)
        sysm.drop_all_caches()
        degraded = engine.execute(cond("energy", ">", 0.5)).elapsed_s
        assert degraded > healthy

    def test_cannot_fail_last_server(self, env):
        sysm, _, _ = env
        sysm.fail_server(0)
        sysm.fail_server(1)
        sysm.fail_server(2)
        with pytest.raises(PDCError):
            sysm.fail_server(3)

    @pytest.mark.parametrize("door", ["fail_server", "recover_server"])
    @pytest.mark.parametrize(
        "bad", [99, -1, 1.0, np.float64(1), True, "1"],
        ids=["99", "-1", "1.0", "np.float64", "True", "str"],
    )
    def test_bad_server_id(self, env, bad, door):
        """A bad id is refused before any state changes."""
        sysm, _, _ = env
        # fail_server(bad) must not crash server 1, recover_server(bad)
        # must not revive it.
        crashed = {1} if door == "recover_server" else set()
        for sid in crashed:
            sysm.fail_server(sid)
        QueryEngine(sysm).execute(cond("energy", ">", 1.0))
        serving = sysm.alive_servers
        cached = [len(s.cache) for s in sysm.servers]
        rendered = sysm.metrics.render()
        with pytest.raises(PDCError):
            getattr(sysm, door)(bad)
        assert sysm.alive_servers == serving
        assert sysm.crashed == crashed
        assert [len(s.cache) for s in sysm.servers] == cached
        assert sysm.metrics.render() == rendered

    def test_refail_redrops_caches_without_a_transition(self, env):
        sysm, _, _ = env
        signals = []
        sysm.register_invalidation_hook(lambda name, regions: signals.append(name))
        sysm.fail_server(1)
        serving = sysm.alive_servers
        transitions = sysm.metrics.total("pdc_cluster_membership_total")
        sysm.servers[1].cache.admit("region:stale", 1024)
        sysm.servers[1].meta_cached.add("energy")
        sysm.fail_server(1)
        assert len(sysm.servers[1].cache) == 0
        assert not sysm.servers[1].meta_cached
        assert signals == [None, None]
        assert sysm.alive_servers is serving
        assert sysm.metrics.total("pdc_cluster_membership_total") == transitions

    def test_crashed_server_zero_does_no_sorted_search(self, env):
        """PDC-SH's binary search runs on a live server."""
        sysm, e, _ = env
        sysm.build_sorted_replica("energy", ["x"])
        sysm.fail_server(0)
        busy_before = sysm.servers[0].clock.breakdown()
        res = QueryEngine(sysm).execute(
            cond("energy", ">", 2.5), strategy=Strategy.SORT_HIST
        )
        assert res.nhits == int((e > 2.5).sum())
        busy_after = sysm.servers[0].clock.breakdown()
        grown = {
            k for k, v in busy_after.items() if v != busy_before.get(k, 0.0)
        }
        assert grown <= {"wait"}


class TestRecovery:
    def test_recovered_server_rejoins(self, env):
        sysm, e, _ = env
        engine = QueryEngine(sysm)
        sysm.fail_server(2)
        engine.execute(cond("energy", ">", 1.0))
        sysm.recover_server(2)
        assert len(sysm.alive_servers) == 4
        res = engine.execute(cond("energy", ">", 1.0))
        assert res.nhits == int((e > 1.0).sum())
        # The recovered server participates again.
        worked = sum(
            v for k, v in sysm.servers[2].clock.breakdown().items() if k != "wait"
        )
        assert worked > 0

    def test_recover_non_failed_rejected(self, env):
        sysm, _, _ = env
        with pytest.raises(PDCError):
            sysm.recover_server(0)

    def test_recovered_clock_monotonic(self, env):
        sysm, _, _ = env
        engine = QueryEngine(sysm)
        sysm.fail_server(1)
        engine.execute(cond("energy", ">", 1.0))
        t_others = max(s.clock.now for s in sysm.alive_servers)
        sysm.recover_server(1)
        assert sysm.servers[1].clock.now >= t_others

    def test_metadata_redistributed_to_recovered_server(self, env):
        sysm, _, _ = env
        engine = QueryEngine(sysm)
        sysm.fail_server(1)
        engine.execute(cond("energy", ">", 1.0))
        sysm.recover_server(1)
        sysm.servers[1].meta_cached.clear()
        engine.execute(cond("energy", ">", 1.5))
        assert "energy" in sysm.servers[1].meta_cached
