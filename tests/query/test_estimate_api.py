"""PDCquery_estimate_nhits: instant histogram-based count bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.api import (
    PDCquery_and,
    PDCquery_create,
    PDCquery_estimate_nhits,
    PDCquery_get_nhits,
    PDCquery_or,
    PDCquery_set_region,
)
from tests.conftest import make_system


@pytest.fixture(scope="module")
def env():
    rng = np.random.default_rng(4)
    sysm = make_system(region_size_bytes=1 << 11)
    e = rng.gamma(2.0, 0.7, 1 << 13).astype(np.float32)
    x = (rng.random(1 << 13) * 300).astype(np.float32)
    eo = sysm.create_object("energy", e)
    xo = sysm.create_object("x", x)
    return sysm, eo.meta.object_id, xo.meta.object_id


class TestBoundsSoundness:
    @given(
        v=st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
        op=st.sampled_from([">", ">=", "<", "<="]),
    )
    @settings(max_examples=80, deadline=None)
    def test_single_condition_bounds_bracket_truth(self, env, v, op):
        sysm, eid, _ = env
        q = PDCquery_create(sysm, eid, op, "float", v)
        lo, hi = PDCquery_estimate_nhits(q)
        truth = PDCquery_get_nhits(q)
        assert lo <= truth <= hi

    @given(
        a=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        w=st.floats(min_value=0.05, max_value=2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_bounds(self, env, a, w):
        sysm, eid, _ = env
        q = PDCquery_and(
            PDCquery_create(sysm, eid, ">", "float", a),
            PDCquery_create(sysm, eid, "<", "float", a + w),
        )
        lo, hi = PDCquery_estimate_nhits(q)
        truth = PDCquery_get_nhits(q)
        assert lo <= truth <= hi

    def test_multi_object_and_upper_sound(self, env):
        sysm, eid, xid = env
        q = PDCquery_and(
            PDCquery_create(sysm, eid, ">", "float", 2.0),
            PDCquery_create(sysm, xid, "<", "float", 100.0),
        )
        lo, hi = PDCquery_estimate_nhits(q)
        truth = PDCquery_get_nhits(q)
        assert lo <= truth <= hi
        assert lo == 0  # marginal histograms cannot lower-bound a join

    def test_or_bounds(self, env):
        sysm, eid, xid = env
        q = PDCquery_or(
            PDCquery_create(sysm, eid, ">", "float", 3.0),
            PDCquery_create(sysm, xid, ">", "float", 290.0),
        )
        lo, hi = PDCquery_estimate_nhits(q)
        truth = PDCquery_get_nhits(q)
        assert lo <= truth <= hi

    def test_upper_capped_by_domain(self, env):
        sysm, eid, xid = env
        q = PDCquery_or(
            PDCquery_create(sysm, eid, ">", "float", -1.0),
            PDCquery_create(sysm, xid, ">", "float", -1.0),
        )
        _, hi = PDCquery_estimate_nhits(q)
        assert hi == 1 << 13

    def test_region_constraint_caps_upper(self, env):
        sysm, eid, _ = env
        q = PDCquery_create(sysm, eid, ">", "float", -1.0)
        PDCquery_set_region(q, (100, 300))
        lo, hi = PDCquery_estimate_nhits(q)
        truth = PDCquery_get_nhits(q)
        assert hi <= 200
        assert lo <= truth <= hi


class TestCost:
    def test_no_clock_movement(self, env):
        """The estimate is free: no simulated time, no region read (every
        PDC read starts with a server cache lookup)."""
        sysm, eid, _ = env

        def lookups():
            return sum(s.cache.stats.hits + s.cache.stats.misses for s in sysm.servers)

        t_before, lookups_before = max(c.now for c in sysm.all_clocks()), lookups()
        q = PDCquery_create(sysm, eid, ">", "float", 2.0)
        PDCquery_estimate_nhits(q)
        assert max(c.now for c in sysm.all_clocks()) == t_before
        assert lookups() == lookups_before
        PDCquery_get_nhits(q)
        assert lookups() > lookups_before

    def test_impossible_condition_estimates_zero(self, env):
        sysm, eid, _ = env
        q = PDCquery_create(sysm, eid, ">", "float", 1e6)
        assert PDCquery_estimate_nhits(q) == (0, 0)
