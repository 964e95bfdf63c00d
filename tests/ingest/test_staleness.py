"""Sorted-replica staleness policies under writes: drop, mark-stale,
and rebuild-on-threshold — plus the cache-invalidation guarantee that a
covered write can never leave pre-update sorted bytes servable."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PDCError
from repro.pdc import PDCConfig
from repro.query.ast import Condition
from repro.query.executor import QueryEngine
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp
from tests.conftest import make_system


def gt(name, v):
    return Condition(name, QueryOp.GT, PDCType.FLOAT, v)


def replicated(policy, threshold=0.25, seed=12345, metrics=None):
    sysm = make_system(
        region_size_bytes=1 << 11,
        replica_staleness_policy=policy,
        replica_rebuild_threshold=threshold,
        metrics=metrics,
    )
    rng = np.random.default_rng(seed)
    n = 1 << 12
    sysm.create_object("energy", rng.gamma(2.0, 0.7, n).astype(np.float32))
    sysm.create_object("x", (rng.random(n) * 300.0).astype(np.float32))
    sysm.build_sorted_replica("energy", ["x"])
    return sysm


def resident_sorted_keys(sysm):
    return [
        key for server in sysm.servers for key, _ in server.cache.entries()
        if ":sorted:" in key
    ]


class TestPolicyConfig:
    def test_unknown_policy_rejected(self):
        with pytest.raises(PDCError):
            PDCConfig(replica_staleness_policy="ignore")
        with pytest.raises(PDCError):
            PDCConfig(replica_rebuild_threshold=0.0)


class TestDropPolicy:
    def test_write_drops_replica(self):
        sysm = replicated("drop")
        sysm.update_object_region("energy", 0, np.ones(16, dtype=np.float32))
        assert "energy" not in sysm.replicas
        assert sysm.last_write_stats.get("replica_drop") == 1


class TestMarkStalePolicy:
    def test_write_marks_stale_and_skips_planning(self):
        sysm = replicated("mark_stale")
        sysm.update_object_region("energy", 0, np.ones(16, dtype=np.float32))
        group = sysm.replicas["energy"]
        assert group.stale and group.stale_elements == 16
        # Planning must not consult the stale sorted copy.
        assert sysm.replica_covering(["energy"]) is None
        assert sysm.last_write_stats.get("replica_mark_stale") == 1

    def test_stale_replica_answers_stay_exact(self):
        """SORT_HIST on a stale replica degrades to an exact fallback
        path rather than serving the stale sorted copy."""
        sysm = replicated("mark_stale")
        sysm.update_object_region(
            "energy", 0, np.full(64, 9.0, dtype=np.float32)
        )
        res = QueryEngine(sysm).execute(
            gt("energy", 8.0), strategy=Strategy.SORT_HIST
        )
        truth = int((sysm.objects["energy"].data > 8.0).sum())
        assert res.nhits == truth == 64

    def test_no_stale_sorted_bytes_served_after_update(self):
        """The satellite-1 regression: a warmed sorted-replica cache must
        be invalidated by a covered write, so a later replica read (after
        an explicit refresh) serves post-update bytes."""
        sysm = replicated("mark_stale")
        engine = QueryEngine(sysm)
        # Warm the sorted-replica caches.
        warm = engine.execute(gt("energy", 2.0), strategy=Strategy.SORT_HIST)
        assert warm.nhits == int((sysm.objects["energy"].data > 2.0).sum())
        # Overwrite a span, refresh the replica, and query again: the
        # answer must reflect the write even though same-keyed cache
        # entries were resident before it.
        sysm.update_object_region(
            "energy", 100, np.full(200, 77.0, dtype=np.float32)
        )
        sysm.refresh_sorted_replica("energy")
        assert not sysm.replicas["energy"].stale
        res = engine.execute(gt("energy", 50.0), strategy=Strategy.SORT_HIST)
        assert res.nhits == 200
        truth = np.flatnonzero(sysm.objects["energy"].data > np.float32(50.0))
        assert np.array_equal(res.selection.coords, truth)


class TestInvalidationOnlyWhereItCanHit:
    @pytest.mark.parametrize("policy", ["drop", "mark_stale", "rebuild"])
    def test_a_write_sweeps_a_readable_group_only(self, policy, monkeypatch):
        """A covered write invalidates the group's cached sorted bytes when
        planning could have read them; a group already stale is unreadable,
        holds none, and is not swept again until it is readable again."""
        sysm = replicated(policy, threshold=0.5)
        engine = QueryEngine(sysm)
        sweeps = []
        real = sysm._invalidate_replica_caches
        monkeypatch.setattr(
            sysm, "_invalidate_replica_caches",
            lambda key_name, group: (sweeps.append(key_name), real(key_name, group)),
        )
        small = np.ones(16, dtype=np.float32)

        def sorted_query():
            res = engine.execute(gt("energy", 2.0), strategy=Strategy.SORT_HIST)
            assert res.nhits == int((sysm.objects["energy"].data > 2.0).sum())

        sorted_query()
        assert resident_sorted_keys(sysm)
        sysm.update_object_region("energy", 0, small)
        assert len(sweeps) == 1 and not resident_sorted_keys(sysm)
        if policy == "drop":
            assert "energy" not in sysm.replicas
            return

        sorted_query()  # falls back: a stale group is not read
        sysm.update_object_region("energy", 32, small)
        sysm.update_object_region("x", 0, small)
        assert len(sweeps) == 1 and not resident_sorted_keys(sysm)

        if policy == "rebuild":
            sysm.update_object_region("energy", 0, np.ones(2048, dtype=np.float32))
            assert sysm.last_write_stats.get("replica_rebuild") == 1
        else:
            sysm.refresh_sorted_replica("energy")
        assert not sysm.replicas["energy"].stale
        sorted_query()
        assert resident_sorted_keys(sysm)
        swept = len(sweeps)
        sysm.update_object_region("energy", 64, small)
        assert len(sweeps) == swept + 1 and not resident_sorted_keys(sysm)
        assert sysm.replicas["energy"].stale


class TestRebuildPolicy:
    def test_small_writes_accumulate_then_rebuild(self):
        sysm = replicated("rebuild", threshold=0.05)  # 5% of 4096 = 204.8
        sysm.update_object_region(
            "energy", 0, np.ones(128, dtype=np.float32)
        )
        assert sysm.replicas["energy"].stale  # below threshold: stale
        assert sysm.last_write_stats.get("replica_mark_stale") == 1
        before = max(s.clock.now for s in sysm.servers)
        sysm.update_object_region(
            "energy", 256, np.ones(128, dtype=np.float32)
        )
        group = sysm.replicas["energy"]
        assert not group.stale and group.stale_elements == 0
        assert sysm.last_write_stats.get("replica_rebuild") == 1
        # The rebuild charged simulated time to the servers.
        assert max(s.clock.now for s in sysm.servers) > before
        assert any(
            "replica_rebuild" in s.clock.breakdown() for s in sysm.servers
        )
        # And the rebuilt replica is usable again.
        assert sysm.replica_covering(["energy"]) is not None

    def test_rebuild_defers_while_growth_uneven(self):
        """A threshold crossing during lockstep appends must wait until
        key and companion are the same length again (the replica zips
        them positionally)."""
        sysm = replicated("rebuild", threshold=0.01)
        rng = np.random.default_rng(1)
        sysm.append_to_object(
            "energy", rng.gamma(2.0, 0.7, 256).astype(np.float32)
        )
        # energy grew, x did not: rebuild must defer, not crash.
        assert sysm.replicas["energy"].stale
        assert sysm.last_write_stats.get("replica_mark_stale") == 1
        sysm.append_to_object(
            "x", (rng.random(256) * 300.0).astype(np.float32)
        )
        # Lengths agree again: this covered write triggers the rebuild.
        assert not sysm.replicas["energy"].stale
        assert sysm.last_write_stats.get("replica_rebuild") == 1
        res = QueryEngine(sysm).execute(
            gt("energy", 2.0), strategy=Strategy.SORT_HIST
        )
        assert res.nhits == int((sysm.objects["energy"].data > 2.0).sum())

    def test_staleness_metric_labels_actions(self):
        from repro.obs.metrics import MetricsRegistry

        sysm = replicated("rebuild", threshold=0.05,
                          metrics=MetricsRegistry())
        sysm.update_object_region("energy", 0, np.ones(16, dtype=np.float32))
        sysm.update_object_region(
            "energy", 64, np.ones(512, dtype=np.float32)
        )
        counter = sysm.metrics.counter(
            "pdc_replica_staleness_total",
            "Sorted-replica staleness actions taken on object writes",
            labels=("action",),
        )
        assert counter.labels(action="mark_stale").total() == 1
        assert counter.labels(action="rebuild").total() == 1
