"""Global histogram: merge provenance, region elimination, estimation."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.histogram.global_hist import GlobalHistogram
from repro.histogram.mergeable import MergeableHistogram
from repro.interval import Interval
from repro.types import QueryOp


@pytest.fixture
def regions(rng):
    """Four regions with disjoint-ish value ranges: 0-1, 1-2, 2-3, 3-4."""
    return {i: rng.random(2000) + i for i in range(4)}


@pytest.fixture
def ghist(regions):
    return GlobalHistogram.build(
        {i: MergeableHistogram.from_data(d, n_bins=32) for i, d in regions.items()}
    )


class TestBuild:
    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            GlobalHistogram.build({})

    def test_total_and_region_count(self, ghist):
        assert ghist.merged.total == 8000
        assert ghist.n_regions == 4

    def test_region_minmax_recorded(self, ghist, regions):
        for rid, data in regions.items():
            lo, hi = ghist.region_minmax[rid]
            assert lo == data.min() and hi == data.max()


class TestRegionElimination:
    def test_surviving_regions_exact(self, ghist):
        # Interval (2.5, 2.6) only lives in region 2.
        surviving = ghist.surviving_regions(Interval(lo=2.5, hi=2.6))
        assert surviving == [2]

    def test_open_boundary_interval(self, ghist, regions):
        iv = Interval.from_op(QueryOp.GT, 3.0)
        surviving = ghist.surviving_regions(iv)
        assert 3 in surviving
        assert 0 not in surviving and 1 not in surviving

    def test_nothing_survives_outside_range(self, ghist):
        assert ghist.surviving_regions(Interval(lo=10.0, hi=11.0)) == []

    def test_everything_survives_full_range(self, ghist):
        assert ghist.surviving_regions(Interval()) == [0, 1, 2, 3]

    def test_eliminated_fraction(self, ghist):
        assert ghist.eliminated_fraction(Interval(lo=2.5, hi=2.6)) == pytest.approx(0.75)
        assert ghist.eliminated_fraction(Interval()) == 0.0

    def test_elimination_never_drops_hits(self, rng, regions, ghist):
        """Any element matching the interval must live in a surviving
        region — the exactness property the executor relies on."""
        for lo in np.linspace(0.0, 3.9, 20):
            iv = Interval(lo=float(lo), hi=float(lo) + 0.05)
            surviving = set(ghist.surviving_regions(iv))
            for rid, data in regions.items():
                if iv.mask(data).any():
                    assert rid in surviving


class TestEstimation:
    def test_bounds_bracket_truth(self, ghist, regions):
        alldata = np.concatenate(list(regions.values()))
        for lo in (0.5, 1.5, 2.5, 3.5):
            iv = Interval(lo=lo, hi=lo + 0.4, lo_closed=False, hi_closed=False)
            lower, upper = ghist.estimate_hits(iv)
            truth = int(iv.mask(alldata).sum())
            assert lower <= truth <= upper

    def test_selectivity_normalized(self, ghist):
        lo, hi = ghist.estimate_selectivity(Interval(lo=0.0, hi=2.0))
        assert 0.0 <= lo <= hi <= 1.0
