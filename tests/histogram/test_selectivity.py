"""Selectivity estimation and multi-object ordering (§III-D2)."""

import numpy as np
import pytest

from repro.histogram.global_hist import GlobalHistogram
from repro.histogram.mergeable import MergeableHistogram
from repro.histogram.selectivity import (
    SelectivityEstimate,
    estimate,
    order_by_selectivity,
)
from repro.interval import Interval


def ghist_of(data, n_regions=4):
    chunks = np.array_split(data, n_regions)
    return GlobalHistogram(MergeableHistogram.merge_many(
        [MergeableHistogram.from_data(c, n_bins=32) for c in chunks]
    ))


@pytest.fixture
def hists(rng):
    return {
        "uniform": ghist_of(rng.random(8000)),          # values in [0, 1)
        "wide": ghist_of(rng.random(8000) * 100.0),      # values in [0, 100)
    }


class TestEstimate:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            SelectivityEstimate(lower=0.5, upper=0.4)
        with pytest.raises(ValueError):
            SelectivityEstimate(lower=-0.1, upper=0.5)

    def test_midpoint(self):
        assert SelectivityEstimate(0.2, 0.4).midpoint == pytest.approx(0.3)

    def test_estimate_matches_global_hist(self, hists):
        iv = Interval(lo=0.0, hi=0.5)
        est = estimate(hists["uniform"], iv)
        assert 0.3 <= est.midpoint <= 0.7  # ~half the uniform data

    def test_upper_capped_at_one(self, hists):
        est = estimate(hists["uniform"], Interval())
        assert est.upper <= 1.0


class TestOrdering:
    def test_most_selective_first(self, hists):
        conditions = [
            ("uniform", Interval(lo=0.0, hi=0.9)),   # ~90% of uniform
            ("wide", Interval(lo=0.0, hi=1.0)),      # ~1% of wide
        ]
        ordered = order_by_selectivity(conditions, hists)
        assert ordered[0][0] == "wide"
        assert ordered[1][0] == "uniform"

    def test_estimates_attached(self, hists):
        conditions = [("uniform", Interval(lo=0.0, hi=0.5))]
        [(name, iv, est)] = order_by_selectivity(conditions, hists)
        assert name == "uniform" and est is not None

    def test_stable_on_ties(self, hists):
        # Same object, same interval twice: input order preserved.
        iv = Interval(lo=0.0, hi=0.5)
        conditions = [("uniform", iv), ("uniform", iv)]
        ordered = order_by_selectivity(conditions, hists)
        assert [n for n, _, _ in ordered] == ["uniform", "uniform"]

    def test_empty_conditions(self, hists):
        assert order_by_selectivity([], hists) == []
