"""Sorted replicas under writes: ``drop`` deletes the replica;
``mark_stale`` marks a covered write's coordinates dirty, the replica keeps
answering — clean coordinates from the sorted run, dirty ones from the live
payload — and a re-sort folds the dirty set in once it reaches the
threshold.  The sorted base never changes, so no write sweeps its cached
bytes; a drop does."""

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
    def test_write_marks_its_span_dirty_and_keeps_planning(self):
        sysm = replicated("mark_stale")
        sysm.update_object_region("energy", 8, np.ones(16, dtype=np.float32))
        sysm.update_object_region("x", 16, np.ones(16, dtype=np.float32))
        replica = sysm.replicas["energy"].replica
        assert replica.dirty.tolist() == list(range(8, 32))
        assert replica.dirty_mask.sum() == 24 and replica.dirty_mask[8:32].all()
        assert sysm.replica_covering(["energy", "x"]) is sysm.replicas["energy"]
        assert sysm.last_write_stats.get("replica_mark_dirty") == 1

    def test_stale_replica_answers_stay_exact(self):
        """SORT_HIST on a written replica still runs the replica, and the
        dirty coordinates are answered from the live payload."""
        sysm = replicated("mark_stale")
        sysm.update_object_region(
            "energy", 0, np.full(64, 9.0, dtype=np.float32)
        )
        res = QueryEngine(sysm).execute(
            gt("energy", 8.0), strategy=Strategy.SORT_HIST
        )
        assert res.step_actuals[0].access_path == "binary-search-run"
        truth = np.flatnonzero(sysm.objects["energy"].data > np.float32(8.0))
        assert res.nhits == truth.size >= 64
        assert np.array_equal(res.selection.coords, truth)

    def test_no_stale_sorted_bytes_served_after_update(self):
        """A warmed sorted-replica cache serves the base, which a write
        never changes; after a re-sort the new base's bytes are read, not
        the old ones."""
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
        assert sysm.replicas["energy"].replica.dirty.size == 0
        res = engine.execute(gt("energy", 50.0), strategy=Strategy.SORT_HIST)
        assert res.nhits == 200
        truth = np.flatnonzero(sysm.objects["energy"].data > np.float32(50.0))
        assert np.array_equal(res.selection.coords, truth)


class TestInvalidationOnlyWhereItCanHit:
    @pytest.mark.parametrize("policy", ["drop", "mark_stale"])
    def test_only_a_drop_or_a_resort_sweeps(self, policy):
        """A covered write leaves the group's cached sorted bytes resident
        (the base they hold did not change); a drop, and a re-sort, which
        replaces the base, invalidate them."""
        sysm = replicated(policy, threshold=0.5)
        engine = QueryEngine(sysm)
        small = np.ones(16, dtype=np.float32)

        def sorted_query():
            res = engine.execute(gt("energy", 2.0), strategy=Strategy.SORT_HIST)
            truth = np.flatnonzero(sysm.objects["energy"].data > np.float32(2.0))
            assert np.array_equal(res.selection.coords, truth)

        sorted_query()
        resident = resident_sorted_keys(sysm)
        assert resident
        sysm.update_object_region("energy", 0, small)
        if policy == "drop":
            assert "energy" not in sysm.replicas
            assert not resident_sorted_keys(sysm)
            return
        sysm.update_object_region("x", 32, small)
        sysm.append_to_object("energy", small)
        sysm.append_to_object("x", small)
        assert resident_sorted_keys(sysm) == resident
        sorted_query()
        sysm.refresh_sorted_replica("energy")
        assert not resident_sorted_keys(sysm)
        sorted_query()


class TestRebuildPolicy:
    def test_small_writes_accumulate_then_rebuild(self):
        sysm = replicated("mark_stale", threshold=0.05)  # 5% of 4096 = 204.8
        sysm.update_object_region(
            "energy", 0, np.ones(128, dtype=np.float32)
        )
        # Rewriting dirty coordinates adds nothing to the dirty set.
        sysm.update_object_region(
            "x", 64, np.ones(64, dtype=np.float32)
        )
        assert sysm.replicas["energy"].replica.dirty.size == 128  # below
        assert sysm.last_write_stats.get("replica_mark_dirty") == 1
        before = max(s.clock.now for s in sysm.servers)
        sysm.update_object_region(
            "energy", 256, np.ones(128, dtype=np.float32)
        )
        group = sysm.replicas["energy"]
        assert group.replica.dirty.size == 0 and group.replica.dirty_mask is None
        assert sysm.last_write_stats.get("replica_rebuild") == 1
        # The rebuild charged simulated time to the servers.
        assert max(s.clock.now for s in sysm.servers) > before
        assert any(
            "replica_rebuild" in s.clock.breakdown() for s in sysm.servers
        )
        assert sysm.replica_covering(["energy"]) is group

    def test_rebuild_defers_while_growth_uneven(self):
        """Appended elements are dirty by position and count toward the
        threshold, but the re-sort must wait until key and companion are
        the same length again (the replica zips them positionally)."""
        sysm = replicated("mark_stale", threshold=0.01)
        rng = np.random.default_rng(1)
        sysm.append_to_object(
            "energy", rng.gamma(2.0, 0.7, 256).astype(np.float32)
        )
        # energy grew, x did not: rebuild must defer, not crash.
        replica = sysm.replicas["energy"].replica
        assert replica.n_elements == 1 << 12
        assert sysm.last_write_stats.get("replica_mark_dirty") == 1
        res = QueryEngine(sysm).execute(
            gt("energy", 2.0), strategy=Strategy.SORT_HIST
        )
        truth = np.flatnonzero(sysm.objects["energy"].data > np.float32(2.0))
        assert np.array_equal(res.selection.coords, truth)
        sysm.append_to_object(
            "x", (rng.random(256) * 300.0).astype(np.float32)
        )
        # Lengths agree again: this covered write triggers the rebuild.
        assert sysm.replicas["energy"].replica.n_elements == (1 << 12) + 256
        assert sysm.last_write_stats.get("replica_rebuild") == 1
        res = QueryEngine(sysm).execute(
            gt("energy", 2.0), strategy=Strategy.SORT_HIST
        )
        assert res.nhits == int((sysm.objects["energy"].data > 2.0).sum())

    def test_staleness_metric_labels_actions(self):
        from repro.obs.metrics import MetricsRegistry

        sysm = replicated("mark_stale", threshold=0.05,
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
        assert counter.labels(action="mark_dirty").total() == 1
        assert counter.labels(action="rebuild").total() == 1


class TestRefusedRefresh:
    def test_uneven_lengths_refused_and_replica_kept(self):
        """A re-sort of a key whose companion has another length is
        refused before anything is dropped."""
        sysm = replicated("mark_stale")
        sysm.append_to_object("energy", np.ones(8, dtype=np.float32))
        group = sysm.replicas["energy"]
        files = sysm.pfs.listdir()
        with pytest.raises(PDCError, match="length"):
            sysm.refresh_sorted_replica("energy")
        assert sysm.replicas["energy"] is group
        assert sysm.pfs.listdir() == files
        assert sysm.get_object("energy").meta.sorted_by == "energy"
