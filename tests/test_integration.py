"""End-to-end integration: the full user journey from import to retrieval,
across subsystems, plus fault-tolerance."""

import numpy as np
import pytest

from repro.pdc import PDCConfig, PDCSystem
from repro.query.api import (
    PDCquery_and,
    PDCquery_create,
    PDCquery_get_data,
    PDCquery_get_data_batch,
    PDCquery_get_histogram,
    PDCquery_get_nhits,
    PDCquery_get_selection,
    PDCquery_or,
    PDCquery_set_region,
    PDCquery_tag,
)
from repro.strategies import Strategy
from repro.workloads.vpic import VPICConfig, generate_vpic


@pytest.fixture(scope="module")
def vpic_env():
    ds = generate_vpic(VPICConfig(n_particles=1 << 15))
    sysm = PDCSystem(
        PDCConfig(n_servers=4, region_size_bytes=1 << 14, virtual_scale=1.0)
    )
    ids = {}
    for name in ("Energy", "x", "y", "z"):
        obj = sysm.create_object(name, ds.arrays[name], container="vpic")
        ids[name] = obj.meta.object_id
    sysm.build_index("Energy")
    sysm.build_sorted_replica("Energy", ["x", "y", "z"])
    return sysm, ds, ids


class TestPaperWorkflow:
    """The §III-A usage pattern: construct, combine, constrain, count,
    select, retrieve."""

    def test_energy_query_every_strategy(self, vpic_env):
        sysm, ds, ids = vpic_env
        e = ds.arrays["Energy"]
        truth = int(((e > 2.1) & (e < 2.2)).sum())
        for strat in Strategy:
            q = PDCquery_and(
                PDCquery_create(sysm, ids["Energy"], ">", "float", 2.1),
                PDCquery_create(sysm, ids["Energy"], "<", "float", 2.2),
            )
            q.strategy = strat
            assert PDCquery_get_nhits(q) == truth, strat

    def test_paper_multi_object_query(self, vpic_env):
        sysm, ds, ids = vpic_env
        a = ds.arrays
        q = None
        for name, op, v in [
            ("Energy", ">", 2.0),
            ("x", ">", 100.0),
            ("x", "<", 200.0),
            ("y", ">", -90.0),
            ("y", "<", 0.0),
            ("z", ">", 0.0),
            ("z", "<", 66.0),
        ]:
            c = PDCquery_create(sysm, ids[name], op, "float", v)
            q = c if q is None else PDCquery_and(q, c)
        truth = (
            (a["Energy"] > 2.0)
            & (a["x"] > 100.0) & (a["x"] < 200.0)
            & (a["y"] > -90.0) & (a["y"] < 0.0)
            & (a["z"] > 0.0) & (a["z"] < 66.0)
        )
        assert PDCquery_get_nhits(q) == int(truth.sum())
        sel = PDCquery_get_selection(q)
        xs = PDCquery_get_data(sysm, ids["x"], sel)
        assert np.array_equal(xs, a["x"][truth])

    def test_query_then_batched_retrieval(self, vpic_env):
        sysm, ds, ids = vpic_env
        e = ds.arrays["Energy"]
        q = PDCquery_create(sysm, ids["Energy"], ">", "float", 2.0)
        sel = PDCquery_get_selection(q)
        rejoined = np.concatenate(
            list(PDCquery_get_data_batch(sysm, ids["Energy"], sel, 500))
        )
        assert np.array_equal(rejoined, e[e > 2.0])

    def test_histogram_available_for_free(self, vpic_env):
        sysm, ds, ids = vpic_env
        h = PDCquery_get_histogram(sysm, ids["Energy"])
        assert h.merged.total == ds.n_particles
        lo, hi = h.estimate_selectivity(
            __import__("repro.interval", fromlist=["Interval"]).Interval(lo=2.0, hi=None, lo_closed=False)
        )
        truth = float((ds.arrays["Energy"] > 2.0).mean())
        assert lo <= truth <= hi

    def test_region_constrained_or_query(self, vpic_env):
        sysm, ds, ids = vpic_env
        a = ds.arrays
        q = PDCquery_or(
            PDCquery_create(sysm, ids["Energy"], ">", "float", 3.0),
            PDCquery_create(sysm, ids["x"], "<", "float", 10.0),
        )
        PDCquery_set_region(q, (1000, 20_000))
        truth = (a["Energy"] > 3.0) | (a["x"] < 10.0)
        assert PDCquery_get_nhits(q) == int(truth[1000:20_000].sum())


class TestFaultTolerance:
    def test_metadata_survives_checkpoint_restore(self, vpic_env):
        sysm, ds, ids = vpic_env
        sysm.metadata.checkpoint()
        # Wipe the in-memory metadata (simulated crash) and restore.
        sysm.metadata._shards = [dict() for _ in range(sysm.metadata.n_shards)]
        sysm.metadata.restore()
        meta = sysm.metadata.get("Energy")
        assert meta.object_id == ids["Energy"]
        assert meta.global_histogram is not None
        # Queries still work after restore.
        q = PDCquery_create(sysm, ids["Energy"], ">", "float", 2.5)
        assert PDCquery_get_nhits(q) == int((ds.arrays["Energy"] > 2.5).sum())


class TestTagWorkflow:
    def test_container_and_tags(self, vpic_env):
        sysm, _, ids = vpic_env
        assert sysm.containers["vpic"]._members == {"Energy", "x", "y", "z"}

    def test_boss_style_tag_then_data(self, rng):
        sysm = PDCSystem(PDCConfig(n_servers=2, region_size_bytes=1 << 16))
        flux = (rng.random(256) * 30).astype(np.float32)
        obj = sysm.create_object("fiber-1", flux, tags={"RADEG": 153.17})
        assert PDCquery_tag(sysm, "RADEG", 153.17) == [obj.meta.object_id]
        q = PDCquery_create(sysm, obj.meta.object_id, "<", "float", 20.0)
        assert PDCquery_get_nhits(q) == int((flux < 20.0).sum())
