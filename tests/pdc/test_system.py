"""PDCSystem: object import, regions, indexes, replicas, containers."""

import numpy as np
import pytest

from repro.errors import ObjectNotFoundError, PDCError, QueryError
from repro.obs.metrics import MetricsRegistry
from repro.pdc import PDCConfig, PDCSystem
from repro.pdc.server import PDCServer
from repro.storage.costmodel import CostModel
from tests.conftest import make_system


class TestConfig:
    def test_region_elements(self):
        cfg = PDCConfig(region_size_bytes=1 << 20, virtual_scale=1.0)
        assert cfg.region_elements(4) == (1 << 20) // 4

    def test_region_elements_with_scale(self):
        cfg = PDCConfig(region_size_bytes=1 << 20, virtual_scale=256.0)
        assert cfg.region_elements(4) == (1 << 20) // 4 // 256

    def test_too_small_region_rejected(self):
        cfg = PDCConfig(region_size_bytes=16, virtual_scale=1000.0)
        with pytest.raises(PDCError):
            cfg.region_elements(4)

    def test_zero_servers_rejected(self):
        with pytest.raises(PDCError):
            PDCSystem(PDCConfig(n_servers=0))

    @pytest.mark.parametrize(
        "bad", [2.5, float("nan"), "4", True, -1, np.float64(4)],
        ids=["2.5", "nan", "str", "True", "-1", "np.float64"],
    )
    def test_n_servers_must_be_a_count(self, bad):
        with pytest.raises(PDCError, match="n_servers"):
            PDCConfig(n_servers=bad)

    def test_numpy_integer_server_count_accepted(self):
        assert PDCSystem(PDCConfig(n_servers=np.int64(3))).n_servers == 3


class TestCreateObject:
    def test_partitioning(self, rng):
        sysm = make_system(region_size_bytes=1 << 12)  # 1024 f32 elements
        data = rng.random(5000).astype(np.float32)
        obj = sysm.create_object("o", data)
        assert obj.n_regions == 5
        assert obj.counts.tolist() == [1024, 1024, 1024, 1024, 904]
        assert obj.offsets.tolist() == [0, 1024, 2048, 3072, 4096]

    def test_files_created(self, rng):
        sysm = make_system()
        sysm.create_object("o", rng.random(100).astype(np.float32))
        assert sysm.pfs.exists("/pdc/data/o")
        assert sysm.pfs.exists("/hdf5/o.h5")

    def test_histograms_and_minmax(self, rng):
        sysm = make_system(region_size_bytes=1 << 12)
        data = rng.random(4096).astype(np.float32)
        obj = sysm.create_object("o", data)
        assert obj.meta.global_histogram is not None
        assert obj.meta.global_histogram.merged.total == 4096
        for rid in range(obj.n_regions):
            seg = data[obj.offsets[rid] : obj.offsets[rid] + obj.counts[rid]]
            assert obj.rmin[rid] == seg.min()
            assert obj.rmax[rid] == seg.max()

    def test_metadata_registered(self, rng):
        sysm = make_system()
        obj = sysm.create_object("o", rng.random(100).astype(np.float32), tags={"a": 1})
        meta = sysm.metadata.get("o")
        assert meta.object_id == obj.meta.object_id
        assert meta.tags == {"a": 1}

    def test_duplicate_rejected(self, rng):
        sysm = make_system()
        sysm.create_object("o", rng.random(100).astype(np.float32))
        with pytest.raises(PDCError):
            sysm.create_object("o", rng.random(100).astype(np.float32))

    def test_2d_accepted_and_flattened(self, rng):
        sysm = make_system()
        obj = sysm.create_object("o", rng.random((10, 10)).astype(np.float32))
        assert obj.meta.dims == (10, 10)
        assert obj.data.ndim == 1 and obj.n_elements == 100

    def test_empty_rejected(self, rng):
        with pytest.raises(PDCError):
            make_system().create_object("o", np.zeros(0, dtype=np.float32))

    def test_container_membership(self, rng):
        sysm = make_system()
        sysm.create_object("o", rng.random(10).astype(np.float32), container="vpic")
        assert "o" in sysm.containers["vpic"]._members

    def test_get_object_missing(self):
        with pytest.raises(ObjectNotFoundError):
            make_system().get_object("nope")
        with pytest.raises(ObjectNotFoundError):
            make_system().get_object_by_id(42)

    def test_region_hits(self, rng):
        sysm = make_system(region_size_bytes=1 << 12)
        obj = sysm.create_object("o", rng.random(3000).astype(np.float32))
        region_ids, hits = obj.region_hits(np.array([0, 1023, 1024, 2999]))
        assert region_ids.tolist() == [0, 1, 2]
        assert hits.tolist() == [2, 1, 1]

    @pytest.mark.parametrize("case", ["empty", "first", "last", "every", "appended"])
    def test_region_hits_equals_the_diff_expression(self, rng, case):
        """Bit-identical (values and dtype) to ``np.diff`` of the boundary
        search with the coordinate count appended, also after an append
        grew the object by a region and a half."""
        sysm = make_system(region_size_bytes=1 << 12)
        obj = sysm.create_object("o", rng.random(3000).astype(np.float32))
        if case == "appended":
            sysm.append_to_object("o", rng.random(1500).astype(np.float32))
        n = obj.n_elements
        coords = {
            "empty": np.array([], dtype=np.int64),
            "first": np.array([0], dtype=np.int64),
            "last": np.array([n - 1], dtype=np.int64),
        }.get(case, np.arange(n, dtype=np.int64))
        hits = np.diff(np.searchsorted(coords, obj.offsets), append=coords.size)
        want_ids = np.flatnonzero(hits)
        region_ids, got = obj.region_hits(coords)
        assert region_ids.dtype == want_ids.dtype and got.dtype == hits.dtype
        assert region_ids.tolist() == want_ids.tolist()
        assert got.tolist() == hits[want_ids].tolist()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("shape", [(10_000,), (100, 100)], ids=["1d-hist", "2d-hist"])
    def test_non_finite_payload_refused(self, bad, shape):
        """The write path's admission rule holds at import too: a NaN or an
        infinity has no histogram bin, and as a region's min/max it would
        make pruning and covering answer wrongly (``e < 100`` over
        ``arange(10000)`` with one NaN: PDC-H found 0 of 99 hits)."""
        sysm = make_system()
        data = np.arange(10_000, dtype=np.float64)
        data[5] = bad
        with pytest.raises(PDCError, match="finite"):
            sysm.create_object("e", data.reshape(shape))
        assert "e" not in sysm.objects

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_integer_payload_admitted(self, dtype):
        data = np.arange(-50, 50, dtype=dtype)
        obj = make_system().create_object("o", data)
        assert obj.rmin[0] == -50 and obj.data.dtype == dtype


class TestIndexes:
    def test_build_and_size(self, rng):
        sysm = make_system(region_size_bytes=1 << 12)
        sysm.create_object("o", rng.gamma(2, 0.7, 4096).astype(np.float32))
        sysm.build_index("o")
        obj = sysm.get_object("o")
        assert obj.indexes is not None and obj.indexes.nbytes.size == obj.n_regions
        assert sysm.index_size_bytes("o") == int(obj.indexes.nbytes.sum())
        assert sysm.pfs.exists("/pdc/index/o")

    def test_idempotent(self, rng):
        sysm = make_system()
        sysm.create_object("o", rng.random(100).astype(np.float32))
        sysm.build_index("o")
        first = sysm.get_object("o").indexes
        sysm.build_index("o")
        assert sysm.get_object("o").indexes is first

    def test_size_requires_index(self, rng):
        sysm = make_system()
        sysm.create_object("o", rng.random(100).astype(np.float32))
        with pytest.raises(QueryError):
            sysm.index_size_bytes("o")


class TestReplicas:
    def test_build(self, rng):
        sysm = make_system(region_size_bytes=1 << 12)
        e = rng.random(4096).astype(np.float32)
        x = rng.random(4096).astype(np.float32)
        sysm.create_object("e", e)
        sysm.create_object("x", x)
        group = sysm.build_sorted_replica("e", ["x"])
        assert group.n_regions == 4
        assert np.all(np.diff(group.replica.key_values) >= 0)
        # Per-region key min/max consistent with the sorted order.
        assert np.all(group.key_rmin[1:] >= group.key_rmax[:-1])
        assert group.build_time_s > 0
        assert sysm.pfs.exists("/pdc/sorted/e/key")
        assert sysm.pfs.exists("/pdc/sorted/e/perm")
        assert sysm.pfs.exists("/pdc/sorted/e/x")

    def test_idempotent(self, rng):
        sysm = make_system()
        sysm.create_object("e", rng.random(100).astype(np.float32))
        g1 = sysm.build_sorted_replica("e")
        g2 = sysm.build_sorted_replica("e")
        assert g1 is g2

    def test_other_companions_refused(self, rng):
        """The same key with another companion set is refused, not
        answered with the old group."""
        sysm = make_system()
        for n in ("a", "b", "c"):
            sysm.create_object(n, rng.random(100).astype(np.float32))
        group = sysm.build_sorted_replica("a", ["b"])
        with pytest.raises(PDCError, match="already exists"):
            sysm.build_sorted_replica("a", ["b", "c"])
        assert sysm.replicas["a"] is group
        assert list(group.replica.companions) == ["b"]
        assert sysm.build_sorted_replica("a", ["b"]) is group

    def test_key_as_its_own_companion_refused(self, rng):
        sysm = make_system()
        sysm.create_object("a", rng.random(100).astype(np.float32))
        with pytest.raises(PDCError, match="distinct"):
            sysm.build_sorted_replica("a", ["a"])
        assert "a" not in sysm.replicas
        assert not [p for p in sysm.pfs.listdir() if p.startswith("/pdc/sorted")]

    def test_repeated_companion_refused(self, rng):
        sysm = make_system()
        for n in ("a", "b"):
            sysm.create_object(n, rng.random(100).astype(np.float32))
        with pytest.raises(PDCError, match="distinct"):
            sysm.build_sorted_replica("a", ["b", "b"])
        assert "a" not in sysm.replicas

    def test_replica_covering(self, rng):
        sysm = make_system()
        for n in ("e", "x", "y"):
            sysm.create_object(n, rng.random(100).astype(np.float32))
        sysm.build_sorted_replica("e", ["x"])
        assert sysm.replica_covering(["e", "x"]) is not None
        assert sysm.replica_covering(["e"]) is not None
        assert sysm.replica_covering(["e", "y"]) is None

    def test_regions_of_run(self, rng):
        sysm = make_system(region_size_bytes=1 << 12)
        sysm.create_object("e", rng.random(4096).astype(np.float32))
        g = sysm.build_sorted_replica("e")
        assert g.regions_of_run(0, 0).size == 0
        assert g.regions_of_run(0, 1024).tolist() == [0]
        assert g.regions_of_run(1000, 1100).tolist() == [0, 1]
        assert g.regions_of_run(0, 4096).tolist() == [0, 1, 2, 3]


class TestServerAndClocks:
    def test_stable_server_mapping(self):
        sysm = make_system(n_servers=4)
        assert [sysm.server_of_region(i) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_sync_clocks(self, rng):
        sysm = make_system()
        sysm.servers[0].clock.charge(5.0)
        t = sysm.sync_clocks()
        assert t == 5.0
        assert all(c.now == 5.0 for c in sysm.all_clocks())

    def test_ensure_region_miss_then_hit(self):
        server = PDCServer(0, CostModel(), metrics=MetricsRegistry())
        t0 = server.clock.now
        hit = server.ensure_region("k", 1 << 20, 1, 8, 1)
        assert not hit and server.clock.now > t0
        t1 = server.clock.now
        hit = server.ensure_region("k", 1 << 20, 1, 8, 1)
        assert hit and server.clock.now == t1  # evaluation hits are free
        hit = server.ensure_region("k", 1 << 20, 1, 8, 1, hit_copy=True)
        assert hit and server.clock.now > t1  # get_data hits pay the copy

    def test_drop_caches(self):
        server = PDCServer(0, CostModel(), metrics=MetricsRegistry())
        server.ensure_region("k", 100, 1, 8, 1)
        server.meta_cached.add("o")
        server.drop_caches()
        assert len(server.cache) == 0 and not server.meta_cached

    def test_create_container_duplicate(self):
        sysm = make_system()
        sysm.create_container("c")
        with pytest.raises(PDCError):
            sysm.create_container("c")


class TestAdaptiveHistogramBins:
    """§III-D2: 'Depending on the region size, we use 50 to 100 bins.'"""

    def test_adaptive_rule_spans_50_to_100(self):
        from repro.ingest.maintain import histogram_bins_for
        from repro.types import MB

        assert histogram_bins_for(4 * MB) == 50
        assert histogram_bins_for(128 * MB) == 100
        mid = histogram_bins_for(32 * MB)
        assert 50 < mid < 100

    def test_objects_get_at_least_requested_bins(self, rng):
        # 16 KiB regions: the rule's floor, 50 bins.
        sysm = make_system(region_size_bytes=1 << 14)
        obj = sysm.create_object("o", rng.random(1 << 14).astype(np.float32))
        assert obj.meta.histograms.n_bins.min() >= 50
