"""Object updates with derived-state maintenance (histograms, indexes,
replicas, caches)."""

import numpy as np
import pytest

from repro.bitmap.index import ObjectIndex
from repro.errors import PDCError
from repro.query.ast import Condition
from repro.query.executor import QueryEngine
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp
from tests.conftest import (
    assert_histograms_fresh, assert_index_fresh, make_system,
)


def cond(name, op, value):
    return Condition(object_name=name, op=QueryOp(op), pdc_type=PDCType.FLOAT, value=value)


@pytest.fixture
def env(rng):
    sysm = make_system(region_size_bytes=1 << 11)  # 512 f32/region
    data = rng.random(1 << 12).astype(np.float32)
    sysm.create_object("obj", data)
    return sysm, data


class TestBasicUpdate:
    def test_data_written_through(self, env, rng):
        sysm, _ = env
        new = np.full(100, 7.5, dtype=np.float32)
        sysm.update_object_region("obj", 600, new)
        obj = sysm.get_object("obj")
        assert np.array_equal(obj.data[600:700], new)
        # PFS file shares the same payload.
        assert np.array_equal(sysm.pfs.read("/pdc/data/obj", 600, 700), new)

    def test_affected_regions_reported(self, env):
        sysm, _ = env
        affected = sysm.update_object_region(
            "obj", 500, np.zeros(100, dtype=np.float32)
        )
        assert affected == [0, 1]  # spans the 512-element boundary

    def test_bounds_checked(self, env):
        sysm, _ = env
        with pytest.raises(PDCError):
            sysm.update_object_region("obj", -1, np.zeros(10, dtype=np.float32))
        with pytest.raises(PDCError):
            sysm.update_object_region("obj", 4000, np.zeros(200, dtype=np.float32))
        with pytest.raises(PDCError):
            sysm.update_object_region("obj", 0, np.zeros(0, dtype=np.float32))


class TestDerivedStateMaintenance:
    def test_histograms_and_minmax_refreshed(self, env):
        sysm, _ = env
        sysm.update_object_region("obj", 0, np.full(512, 99.0, dtype=np.float32))
        obj = sysm.get_object("obj")
        assert obj.rmin[0] == 99.0 and obj.rmax[0] == 99.0
        assert obj.meta.global_histogram.merged.data_max == 99.0

    @pytest.mark.parametrize("maintenance", ["rebuild", "delta"])
    def test_overwriting_the_widest_region_narrows_the_global_grid(
        self, rng, maintenance
    ):
        """Region 1 alone carries the merged bin width; once overwritten,
        the re-merge must land on the finer grid a from-scratch merge
        picks, not on the grid the other regions were coarsened to."""
        sysm = make_system(region_size_bytes=1 << 11)
        data = rng.random(1 << 12).astype(np.float32)
        data[512:1024] *= 64.0
        obj = sysm.create_object("obj", data)
        wide = obj.meta.global_histogram.merged.bin_width
        assert wide == obj.meta.histograms.view(1).bin_width
        sysm.update_object_region(
            "obj", 512, rng.random(512).astype(np.float32), maintenance=maintenance
        )
        assert obj.meta.global_histogram.merged.bin_width < wide
        assert_histograms_fresh(sysm, obj)

    def test_queries_correct_after_update(self, env):
        sysm, _ = env
        engine = QueryEngine(sysm)
        before = engine.execute(cond("obj", ">", 50.0)).nhits
        assert before == 0
        sysm.update_object_region("obj", 100, np.full(50, 99.0, dtype=np.float32))
        after = engine.execute(cond("obj", ">", 50.0))
        assert after.nhits == 50
        truth = np.flatnonzero(sysm.get_object("obj").data > 50.0)
        assert np.array_equal(after.selection.coords, truth)

    def test_index_rebuilt_and_consistent(self, env):
        sysm, _ = env
        sysm.build_index("obj")
        sysm.update_object_region("obj", 0, np.full(512, 42.0, dtype=np.float32))
        engine = QueryEngine(sysm)
        res = engine.execute(cond("obj", "=", 42.0), strategy=Strategy.HIST_INDEX)
        assert res.nhits == 512
        obj = sysm.get_object("obj")
        # The region's rebuilt index has one occupied bin.
        assert np.count_nonzero(obj.indexes.bin_counts[0]) == 1
        assert sysm.pfs.exists("/pdc/index/obj")

    def test_replica_dropped_on_update(self, env, rng):
        sysm, _ = env
        sysm.create_object("companion", rng.random(1 << 12).astype(np.float32))
        sysm.build_sorted_replica("obj", ["companion"])
        assert "obj" in sysm.replicas
        sysm.update_object_region("obj", 0, np.zeros(10, dtype=np.float32))
        assert "obj" not in sysm.replicas
        assert not sysm.pfs.exists("/pdc/sorted/obj/key")
        assert sysm.get_object("obj").meta.sorted_by is None

    def test_update_of_companion_drops_replica_too(self, env, rng):
        sysm, _ = env
        sysm.create_object("companion", rng.random(1 << 12).astype(np.float32))
        sysm.build_sorted_replica("obj", ["companion"])
        sysm.update_object_region("companion", 0, np.zeros(10, dtype=np.float32))
        assert "obj" not in sysm.replicas

    def test_sorted_strategy_falls_back_after_drop(self, env, rng):
        """SORT_HIST on a dropped replica degrades gracefully to the
        histogram path with exact answers."""
        sysm, _ = env
        sysm.build_sorted_replica("obj")
        sysm.update_object_region("obj", 0, np.full(20, 5.0, dtype=np.float32))
        res = QueryEngine(sysm).execute(cond("obj", ">", 4.0), strategy=Strategy.SORT_HIST)
        assert res.nhits == 20

    def test_stale_caches_invalidated(self, env):
        sysm, _ = env
        engine = QueryEngine(sysm)
        engine.execute(cond("obj", ">", 0.5))  # warm caches
        sysm.update_object_region("obj", 0, np.full(512, 0.9, dtype=np.float32))
        res = engine.execute(cond("obj", ">", 0.5))
        # Region 0 was invalidated: it must be re-read, not served stale.
        assert res.regions_read >= 1

    def test_write_cost_charged(self, env):
        sysm, _ = env
        before = max(s.clock.now for s in sysm.servers)
        sysm.update_object_region("obj", 0, np.zeros(512, dtype=np.float32))
        assert max(s.clock.now for s in sysm.servers) > before

    def test_drop_replica_idempotent(self, env):
        sysm, _ = env
        sysm.build_sorted_replica("obj")
        sysm.drop_sorted_replica("obj")
        sysm.drop_sorted_replica("obj")  # no error
        assert "obj" not in sysm.replicas


def _state(sysm, name):
    """Everything a write may touch.  Arrays are copied (compared by
    value); the histogram table, the object index, their arrays and PFS
    files are kept as the objects themselves (compared by identity — a
    failed write must not even have replaced one with an equal copy)."""
    obj = sysm.get_object(name)
    arrays = ("data", "offsets", "counts", "rmin", "rmax")
    table, ghist = obj.meta.histograms, obj.meta.global_histogram
    columns = {a: v for a, v in vars(table).items() if isinstance(v, np.ndarray)}
    return {
        "arrays": {
            **{a: getattr(obj, a).copy() for a in arrays},
            **{f"histogram {a}": v.copy() for a, v in columns.items()},
            **{f"index {a}": v.copy() for a, v in vars(obj.indexes).items()},
            "index file": sysm.pfs.stat(f"/pdc/index/{name}").data.copy(),
            "merged counts": ghist.merged.counts.copy(),
        },
        "global": (ghist.merged.bin_width, ghist.merged.start),
        "replicas": {k: g.replica.dirty.tolist() for k, g in sysm.replicas.items()},
        "sizes": (obj.n_elements, obj.n_regions, table.n_regions),
        "objects": [table, ghist, ghist.merged, *columns.values()]
        + [obj.indexes, *vars(obj.indexes).values()]
        + [sysm.pfs.stat(path) for path in sysm.pfs.listdir()],
        "files": sysm.pfs.listdir(),
        "clocks": {c.name: (c.now, c.breakdown()) for c in sysm.all_clocks()},
    }


def _assert_untouched(before, after):
    for key in ("sizes", "files", "clocks", "global", "replicas"):
        assert after[key] == before[key], key
    for name, arr in before["arrays"].items():
        got = after["arrays"][name]
        assert (arr is None and got is None) or np.array_equal(arr, got), name
    assert len(after["objects"]) == len(before["objects"])
    assert all(a is b for a, b in zip(after["objects"], before["objects"]))


#: 3,996 f32 in 512-element regions: seven full regions and a 412-element
#: tail with room for 100 more.
ATOMIC_N = (1 << 12) - 100

WRITES = {
    "overwrite_two_regions": (
        lambda s, v, m: s.update_object_region("obj", 500, v, maintenance=m),
        100, [0, 1],
    ),
    "append_into_tail": (
        lambda s, v, m: s.append_to_object("obj", v, maintenance=m), 50, [7],
    ),
    "append_opening_region": (
        lambda s, v, m: s.append_to_object("obj", v, maintenance=m), 200, [7, 8],
    ),
}


class TestAtomicCommit:
    @pytest.mark.parametrize("maintenance", ["rebuild", "delta"])
    @pytest.mark.parametrize("write", list(WRITES))
    def test_mid_write_failure_rolls_back_and_charges_nothing(
        self, write, maintenance, rng, monkeypatch
    ):
        """A failure in the write's *last* histogram construction — a
        delta patch of the last patched region, or the one table build of
        the regions it rebuilds, after every region was derived — must
        leave the system exactly as before the write: payload, extents,
        metadata, derived state, the replica's dirty set, PFS namespace and
        every clock; the same write then succeeds and marks exactly its
        span dirty."""
        from repro.histogram.global_hist import HistogramTable
        from repro.histogram.mergeable import MergeableHistogram

        apply, n_values, regions = WRITES[write]
        values = np.full(n_values, 123.0, dtype=np.float32)
        data = rng.random(ATOMIC_N).astype(np.float32)

        def deployment():
            sysm = make_system(
                region_size_bytes=1 << 11, replica_staleness_policy="mark_stale"
            )
            sysm.create_object("obj", data.copy())
            sysm.build_index("obj")
            sysm.build_sorted_replica("obj")
            return sysm

        twin, sysm = deployment(), deployment()
        calls = {"n": 0, "fail_at": None}

        def counted(real):
            def wrapper(cls, *args, **kwargs):
                calls["n"] += 1
                if calls["n"] == calls["fail_at"]:
                    raise RuntimeError("simulated maintenance failure")
                return real(cls, *args, **kwargs)

            return classmethod(wrapper)

        for cls, method in (
            (MergeableHistogram, "from_data"), (MergeableHistogram, "from_data_width"),
            (HistogramTable, "build"),
        ):
            monkeypatch.setattr(cls, method, counted(getattr(cls, method).__func__))
        # The twin counts the histogram constructions of the whole write,
        # so the write under test can fail in the very last of them.
        apply(twin, values, maintenance)
        calls["fail_at"], calls["n"] = calls["n"], 0

        before = _state(sysm, "obj")
        with pytest.raises(RuntimeError, match="simulated maintenance"):
            apply(sysm, values, maintenance)
        assert calls["n"] == calls["fail_at"] >= 1
        _assert_untouched(before, _state(sysm, "obj"))

        # The system is fully usable afterwards: the same write succeeds
        # once the fault clears, and queries see it.
        monkeypatch.undo()
        assert apply(sysm, values, maintenance) == regions
        res = QueryEngine(sysm).execute(cond("obj", ">", 100.0))
        assert res.nhits == n_values
        # What the write maintained piecewise equals the whole rebuilt.
        obj = sysm.get_object("obj")
        assert_histograms_fresh(sysm, obj)
        assert_index_fresh(sysm, obj)
        replica = sysm.replicas["obj"].replica
        written = np.flatnonzero(obj.data == np.float32(123.0))
        assert np.array_equal(replica.dirty_coords(obj.n_elements), written)
        if maintenance == "rebuild":
            _, fresh = ObjectIndex.build(obj.data, obj.counts)
            for rid, chunk in enumerate(sysm.pfs.stat("/pdc/index/obj").chunks):
                assert np.array_equal(chunk, fresh[rid]), rid

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("maintenance", ["rebuild", "delta"])
    def test_non_finite_payload_refused_before_anything_changes(
        self, bad, maintenance, rng
    ):
        """A NaN or infinity has no histogram bin: overwrite and append
        refuse it with a typed error and touch nothing — every strategy
        still answers like numpy on the unchanged payload."""
        sysm = make_system(region_size_bytes=1 << 12)  # 1024 f32/region
        data = rng.gamma(2.0, 0.7, 5000).astype(np.float32)
        sysm.create_object("o", data.copy())
        sysm.create_object("x", rng.random(5000).astype(np.float32))
        sysm.build_index("o")
        sysm.build_sorted_replica("o", ["x"])
        before = _state(sysm, "o")
        payload = np.array([bad] * 3, dtype=np.float32)
        with pytest.raises(PDCError, match="finite"):
            sysm.append_to_object("o", payload, maintenance=maintenance)
        with pytest.raises(PDCError, match="finite"):
            sysm.update_object_region("o", 10, payload, maintenance=maintenance)
        _assert_untouched(before, _state(sysm, "o"))
        assert "o" in sysm.replicas
        truth = np.flatnonzero(data > np.float32(2.0))
        for strategy in Strategy:
            res = QueryEngine(sysm).execute(cond("o", ">", 2.0), strategy=strategy)
            assert res.complete and res.nhits == truth.size, strategy
            assert np.array_equal(res.selection.coords, truth), strategy
