"""Equal-width / equal-height histograms — the non-mergeable baselines
whose limitation motivates Algorithm 1."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.histogram.uniform import EqualHeightHistogram, EqualWidthHistogram
from repro.interval import Interval


@pytest.fixture
def data(rng):
    return rng.gamma(2.0, 1.0, 5000)


class TestEqualWidth:
    def test_counts_sum(self, data):
        h = EqualWidthHistogram.from_data(data, n_bins=32)
        assert h.counts.sum() == data.size
        assert h.n_bins == 32

    def test_equal_widths(self, data):
        h = EqualWidthHistogram.from_data(data, n_bins=16)
        widths = np.diff(h.boundaries)
        assert np.allclose(widths, widths[0])

    def test_bounds_bracket_truth(self, data):
        h = EqualWidthHistogram.from_data(data, n_bins=32)
        for lo in (0.5, 1.5, 3.0):
            iv = Interval(lo=lo, hi=lo + 1.0, lo_closed=False, hi_closed=False)
            lower, upper = h.estimate_hits(iv)
            truth = int(iv.mask(data).sum())
            assert lower <= truth <= upper

    def test_constant_data(self):
        h = EqualWidthHistogram.from_data(np.full(10, 2.0))
        assert h.counts.sum() == 10

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            EqualWidthHistogram.from_data(np.array([]))


class TestEqualHeight:
    def test_roughly_equal_heights(self, data):
        h = EqualHeightHistogram.from_data(data, n_bins=10)
        expected = data.size / 10
        assert np.all(np.abs(h.counts - expected) < expected * 0.2)

    def test_bounds_bracket_truth(self, data):
        h = EqualHeightHistogram.from_data(data, n_bins=20)
        iv = Interval(lo=1.0, hi=2.0)
        lower, upper = h.estimate_hits(iv)
        truth = int(iv.mask(data).sum())
        assert lower <= truth <= upper

    def test_heavy_ties_collapse_gracefully(self):
        data = np.concatenate([np.zeros(900), np.arange(100.0)])
        h = EqualHeightHistogram.from_data(data, n_bins=10)
        assert h.counts.sum() == 1000


class TestMergeRestriction:
    def test_identical_boundaries_merge(self, rng):
        a = rng.random(100)
        h1 = EqualWidthHistogram.from_data(a, n_bins=8)
        h2 = EqualWidthHistogram(
            boundaries=h1.boundaries.copy(),
            counts=h1.counts.copy(),
            data_min=h1.data_min,
            data_max=h1.data_max,
        )
        merged = h1.merge(h2)
        assert merged.counts.sum() == 2 * h1.counts.sum()

    def test_different_boundaries_rejected(self, rng):
        """The §IV motivation: per-region equal-width histograms have
        different boundaries and cannot be merged."""
        h1 = EqualWidthHistogram.from_data(rng.random(100), n_bins=8)
        h2 = EqualWidthHistogram.from_data(rng.random(100) * 2.0, n_bins=8)
        with pytest.raises(QueryError):
            h1.merge(h2)

    def test_boundary_count_mismatch_rejected(self, rng):
        with pytest.raises(QueryError):
            EqualWidthHistogram(
                boundaries=np.array([0.0, 1.0]),
                counts=np.array([1, 2]),
                data_min=0.0,
                data_max=1.0,
            )

    def test_descending_boundaries_rejected(self):
        with pytest.raises(QueryError):
            EqualWidthHistogram(
                boundaries=np.array([1.0, 0.0]),
                counts=np.array([1]),
                data_min=0.0,
                data_max=1.0,
            )
