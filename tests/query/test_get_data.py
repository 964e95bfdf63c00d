"""PDCquery_get_data / get_data_batch semantics and cost behaviour."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.query.ast import Condition, combine_and
from repro.query.executor import QueryEngine
from repro.query.selection import Selection
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp
from tests.conftest import make_system


def cond(name, op, value):
    return Condition(object_name=name, op=QueryOp(op), pdc_type=PDCType.FLOAT, value=value)


@pytest.fixture
def env(rng):
    sysm = make_system(region_size_bytes=1 << 11)
    e = rng.gamma(2.0, 0.7, 1 << 12).astype(np.float32)
    x = (rng.random(1 << 12) * 300.0).astype(np.float32)
    sysm.create_object("energy", e)
    sysm.create_object("x", x)
    return sysm, e, x


class TestValues:
    def test_values_match_selection(self, env):
        sysm, e, _ = env
        engine = QueryEngine(sysm)
        res = engine.execute(cond("energy", ">", 2.0))
        gd = engine.get_data(res.selection, "energy")
        assert np.array_equal(gd.values, e[e > 2.0])

    def test_cross_object_retrieval(self, env):
        """§III-A: retrieve a *different* object's values at the matching
        locations (query energy, fetch x)."""
        sysm, e, x = env
        engine = QueryEngine(sysm)
        res = engine.execute(cond("energy", ">", 2.0))
        gd = engine.get_data(res.selection, "x")
        assert np.array_equal(gd.values, x[e > 2.0])

    def test_empty_selection(self, env):
        sysm, _, _ = env
        engine = QueryEngine(sysm)
        gd = engine.get_data(Selection(np.zeros(0, dtype=np.int64), 1 << 12), "energy")
        assert gd.values.size == 0
        assert gd.elapsed_s >= 0

    def test_domain_mismatch_rejected(self, env):
        sysm, _, _ = env
        with pytest.raises(QueryError):
            QueryEngine(sysm).get_data(Selection(np.zeros(0, dtype=np.int64), 999), "energy")


class TestBatches:
    def test_batches_concat_to_full(self, env):
        sysm, e, _ = env
        engine = QueryEngine(sysm)
        res = engine.execute(cond("energy", ">", 1.0))
        batches = list(engine.get_data_batch(res.selection, "energy", batch_size=100))
        rejoined = np.concatenate([b.values for b in batches])
        assert np.array_equal(rejoined, e[e > 1.0])
        for b in batches[:-1]:
            assert b.values.size == 100

    def test_each_batch_charged(self, env):
        sysm, _, _ = env
        engine = QueryEngine(sysm)
        res = engine.execute(cond("energy", ">", 1.0))
        batches = list(engine.get_data_batch(res.selection, "energy", batch_size=200))
        assert all(b.elapsed_s > 0 for b in batches)


class TestCostBehaviour:
    def test_histogram_eval_caches_regions_for_get_data(self, env):
        """§VI-A observation 4: PDC-H's get_data is served from the regions
        cached during evaluation."""
        sysm, _, _ = env
        engine = QueryEngine(sysm)
        res = engine.execute(cond("energy", ">", 2.0), strategy=Strategy.HISTOGRAM)
        gd = engine.get_data(res.selection, "energy", strategy=Strategy.HISTOGRAM)
        assert gd.regions_read == 0
        assert gd.regions_cached > 0

    def test_index_eval_must_read_for_get_data(self, env):
        """§VI-A observation 4: with an index the data was never read, so
        get_data pays storage reads."""
        sysm, _, _ = env
        sysm.build_index("energy")
        engine = QueryEngine(sysm)
        res = engine.execute(cond("energy", ">", 2.0), strategy=Strategy.HIST_INDEX)
        gd = engine.get_data(res.selection, "energy", strategy=Strategy.HIST_INDEX)
        assert gd.regions_read > 0

    def test_index_get_data_slower_than_cached(self, env):
        sysm, _, _ = env
        sysm.build_index("energy")
        engine = QueryEngine(sysm)
        node = cond("energy", ">", 2.0)
        res_hi = engine.execute(node, strategy=Strategy.HIST_INDEX)
        gd_hi = engine.get_data(res_hi.selection, "energy", strategy=Strategy.HIST_INDEX)
        sysm.drop_all_caches()
        res_h = engine.execute(node, strategy=Strategy.HISTOGRAM)
        gd_h = engine.get_data(res_h.selection, "energy", strategy=Strategy.HISTOGRAM)
        assert gd_h.elapsed_s < gd_hi.elapsed_s

    def test_sorted_get_data_served_from_replica_cache(self, env):
        sysm, e, _ = env
        sysm.build_sorted_replica("energy", ["x"])
        engine = QueryEngine(sysm)
        node = combine_and(cond("energy", ">", 2.0), cond("x", "<", 200.0))
        res = engine.execute(node, strategy=Strategy.SORT_HIST)
        gd = engine.get_data(res.selection, "x", strategy=Strategy.SORT_HIST)
        truth = sysm.get_object("x").data[res.selection.coords]
        assert np.array_equal(gd.values, truth)
        assert gd.regions_cached > 0

    def test_auto_strategy_resolved(self, env):
        """Regression: get_data(strategy=AUTO) used to leave the strategy
        literally as AUTO, so the ``strat is SORT_HIST`` replica-path test
        below it could never fire and AUTO always paid original-object
        reads.  AUTO must resolve through the planner and take the
        replica-cache path after a SORT_HIST evaluation."""
        sysm, _, x = env
        sysm.build_sorted_replica("energy", ["x"])
        engine = QueryEngine(sysm)
        node = combine_and(cond("energy", ">", 2.0), cond("x", "<", 200.0))
        res = engine.execute(node, strategy=Strategy.SORT_HIST)
        gd = engine.get_data(res.selection, "x", strategy=Strategy.AUTO)
        assert np.array_equal(gd.values, x[res.selection.coords])
        # Replica regions were cached by the evaluation: AUTO must reuse
        # them instead of reading the original object from storage.
        assert gd.regions_cached > 0
        assert gd.regions_read == 0

    def test_auto_matches_explicit_sort_hist(self, rng):
        """AUTO on a replica-backed deployment is indistinguishable from an
        explicit SORT_HIST run on an identical twin deployment."""
        def deployment():
            local = np.random.default_rng(4242)
            sysm = make_system(region_size_bytes=1 << 11)
            sysm.create_object(
                "energy", local.gamma(2.0, 0.7, 1 << 12).astype(np.float32)
            )
            sysm.create_object(
                "x", (local.random(1 << 12) * 300.0).astype(np.float32)
            )
            sysm.build_sorted_replica("energy", ["x"])
            return sysm

        node = combine_and(cond("energy", ">", 2.0), cond("x", "<", 200.0))
        runs = {}
        for strat in (Strategy.AUTO, Strategy.SORT_HIST):
            sysm = deployment()
            engine = QueryEngine(sysm)
            res = engine.execute(node, strategy=Strategy.SORT_HIST)
            gd = engine.get_data(res.selection, "x", strategy=strat)
            runs[strat] = (
                gd.values.tobytes(),
                gd.regions_read,
                gd.regions_cached,
                gd.elapsed_s,
            )
        assert runs[Strategy.AUTO] == runs[Strategy.SORT_HIST]

    def test_aggregated_get_data_mode(self, rng):
        """Ablation: get_data reading aggregated hit extents instead of
        whole regions still returns correct values."""
        sysm = make_system(region_size_bytes=1 << 11, get_data_whole_regions=False)
        e = rng.gamma(2.0, 0.7, 1 << 12).astype(np.float32)
        sysm.create_object("energy", e)
        sysm.build_index("energy")
        engine = QueryEngine(sysm)
        res = engine.execute(cond("energy", ">", 2.5), strategy=Strategy.HIST_INDEX)
        gd = engine.get_data(res.selection, "energy", strategy=Strategy.HIST_INDEX)
        assert np.array_equal(gd.values, e[e > 2.5])
        assert gd.elapsed_s > 0
