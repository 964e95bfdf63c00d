"""HDF5-F baseline engine."""

import numpy as np
import pytest

from repro.baselines import HDF5FullScanEngine
from repro.errors import QueryError
from repro.interval import Interval
from repro.workloads.queries import QuerySpec
from tests.conftest import make_system


@pytest.fixture
def env(rng):
    sysm = make_system()
    e = rng.gamma(2.0, 0.7, 1 << 12).astype(np.float32)
    x = (rng.random(1 << 12) * 300.0).astype(np.float32)
    sysm.create_object("energy", e)
    sysm.create_object("x", x)
    return sysm, e, x


class TestPreload:
    def test_required_before_query(self, env):
        sysm, _, _ = env
        h5 = HDF5FullScanEngine(sysm)
        with pytest.raises(QueryError):
            h5.query(QuerySpec("t", (("energy", ">", 2.0),)))

    def test_charges_time_once(self, env):
        sysm, _, _ = env
        h5 = HDF5FullScanEngine(sysm)
        t1 = h5.preload(["energy"])
        assert t1 > 0
        t2 = h5.preload(["energy"])
        assert t2 == 0.0

    def test_imbalance_visible(self, env):
        """HDF5 files carry the OST-hotspot penalty; PDC files don't."""
        sysm, _, _ = env
        h5 = HDF5FullScanEngine(sysm)
        t_h5 = h5.preload(["energy"])
        from repro.query.executor import QueryEngine

        t_pdc = QueryEngine(sysm).preload(["energy"])
        assert t_h5 > t_pdc


class TestQuery:
    def test_single_condition(self, env):
        sysm, e, _ = env
        h5 = HDF5FullScanEngine(sysm)
        h5.preload(["energy"])
        res = h5.query(QuerySpec("t", (("energy", ">", 2.0),)))
        assert res.nhits == int((e > 2.0).sum())
        assert res.elapsed_s > 0
        assert res.coords is None

    def test_multi_condition_and_selection(self, env):
        sysm, e, x = env
        h5 = HDF5FullScanEngine(sysm)
        h5.preload(["energy", "x"])
        spec = QuerySpec("t", (("energy", ">", 1.5), ("x", "<", 200.0)))
        res = h5.query(spec, want_selection=True)
        truth = np.flatnonzero((e > 1.5) & (x < 200.0))
        assert np.array_equal(res.coords, truth)

    def test_same_object_window(self, env):
        sysm, e, _ = env
        h5 = HDF5FullScanEngine(sysm)
        h5.preload(["energy"])
        spec = QuerySpec("t", (("energy", ">", 2.1), ("energy", "<", 2.2)))
        res = h5.query(spec)
        assert res.nhits == int(((e > 2.1) & (e < 2.2)).sum())

    def test_contradictory_conditions(self, env):
        sysm, _, _ = env
        h5 = HDF5FullScanEngine(sysm)
        h5.preload(["energy"])
        spec = QuerySpec("t", (("energy", ">", 5.0), ("energy", "<", 1.0)))
        assert h5.query(spec).nhits == 0

    def test_flat_cost_across_selectivities(self, env):
        """A full scan costs ~the same whatever the query matches."""
        sysm, _, _ = env
        h5 = HDF5FullScanEngine(sysm)
        h5.preload(["energy"])
        t_rare = h5.query(QuerySpec("t", (("energy", ">", 3.9),))).elapsed_s
        t_common = h5.query(QuerySpec("t", (("energy", ">", 0.1),))).elapsed_s
        assert t_common < 3 * t_rare


class TestBossTraversal:
    def test_counts_and_cost(self, rng):
        sysm = make_system(region_size_bytes=1 << 16)
        truth_total = 0
        names = []
        for i in range(20):
            flux = (rng.random(64) * 30).astype(np.float32)
            name = f"f{i:02d}"
            tags = {"RADEG": 1.0 if i < 5 else 2.0}
            sysm.create_object(name, flux, tags=tags)
            names.append(name)
            if i < 5:
                truth_total += int(((flux > 0) & (flux < 20)).sum())
        h5 = HDF5FullScanEngine(sysm)
        iv = Interval(lo=0.0, hi=20.0, lo_closed=False, hi_closed=False)
        res = h5.boss_traverse({"RADEG": 1.0}, iv, names)
        assert res.nhits == truth_total
        assert res.elapsed_s > 0

    def test_traversal_cost_dominated_by_catalog_size(self, rng):
        """Cost is roughly flat in the number of *matching* objects — every
        file is visited regardless (the Fig. 5 effect)."""
        sysm = make_system(region_size_bytes=1 << 16)
        names = []
        for i in range(40):
            sysm.create_object(
                f"f{i:02d}", (rng.random(64) * 30).astype(np.float32),
                tags={"RADEG": float(i % 2)},
            )
            names.append(f"f{i:02d}")
        h5 = HDF5FullScanEngine(sysm)
        iv = Interval(lo=0.0, hi=20.0)
        t_match_half = h5.boss_traverse({"RADEG": 0.0}, iv, names).elapsed_s
        t_match_none = h5.boss_traverse({"RADEG": 99.0}, iv, names).elapsed_s
        assert t_match_none > 0.25 * t_match_half
