"""``MergeableHistogram.estimate_hits`` by binary search over the bins'
content extents and a prefix sum of the counts equals the per-bin mask
formula it replaced, which is kept here as the reference.

The cases that matter are bounds that land exactly on what the search
compares: bin edges, the true ``data_min``/``data_max`` (where edge bins are
tightened), stored values, open and closed endpoints, and unbounded sides.
Integer data keeps every such value exact.
"""

from __future__ import annotations

import itertools
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.histogram.mergeable import MergeableHistogram
from repro.interval import Interval


def mask_estimate(h: MergeableHistogram, interval: Interval):
    """The reference: every bin classified by a mask, then summed."""
    if not h.overlaps(interval):
        return (0, 0)
    edges = h.boundaries
    content_lo = np.maximum(edges[:-1], h.data_min)
    content_hi = np.minimum(edges[1:], h.data_max)
    q_lo, q_hi = interval.finite_bounds()
    partial = np.ones(h.n_bins, dtype=bool)
    if interval.lo is not None:
        partial &= (content_hi >= q_lo) if interval.lo_closed else (content_hi > q_lo)
    if interval.hi is not None:
        partial &= (content_lo <= q_hi) if interval.hi_closed else (content_lo < q_hi)
    full = partial.copy()
    if interval.lo is not None:
        full &= (content_lo > q_lo) | ((content_lo == q_lo) & interval.lo_closed)
    if interval.hi is not None:
        full &= (content_hi < q_hi) | ((content_hi == q_hi) & interval.hi_closed)
    return (int(h.counts[full].sum()), int(h.counts[partial].sum()))


def bounds_of_interest(h: MergeableHistogram, data: np.ndarray):
    """Every value the search can tie: edges, extrema, stored values, the
    points between them, and values outside the data."""
    values = set(h.boundaries.tolist()) | {h.data_min, h.data_max}
    values |= set(data.tolist()) | {v + 0.5 for v in data.tolist()}
    values |= {h.data_min - 7.0, h.data_max + 7.0, -np.inf, np.inf}
    return sorted(values)


def interval(lo, hi, lo_closed, hi_closed):
    if lo is not None and hi is not None:
        lo, hi = min(lo, hi), max(lo, hi)
        if lo == hi:
            lo_closed = hi_closed = True
    return Interval(lo, hi, lo_closed, hi_closed)


integer_data = st.lists(st.integers(-40, 40), min_size=1, max_size=120).map(
    lambda v: np.array(v, dtype=np.float64)
)


#: Bin widths from below to above the data's unit spacing.
widths = st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0, 16.0])


@st.composite
def histogram_cases(draw):
    data = draw(integer_data)
    h = MergeableHistogram.from_data_width(data, draw(widths))
    if draw(st.booleans()):  # a merged, object-wide histogram
        other = draw(integer_data)
        h = MergeableHistogram.merge_many(
            [h, MergeableHistogram.from_data_width(other, draw(widths))]
        )
        data = np.concatenate((data, other))
    pool = st.sampled_from(bounds_of_interest(h, data))
    lo, hi = draw(st.none() | pool), draw(st.none() | pool)
    return h, interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


class TestPrefixSumEstimate:
    @given(histogram_cases())
    @settings(max_examples=400, deadline=None)
    def test_equals_the_mask_formula(self, case):
        h, iv = case
        assert h.estimate_hits(iv) == mask_estimate(h, iv)

    def test_every_interval_over_the_bounds_of_interest(self, rng):
        data = rng.integers(-30, 30, 500).astype(np.float64)
        for h in (
            MergeableHistogram.from_data(data, n_bins=16),
            MergeableHistogram.merge_many([
                MergeableHistogram.from_data(data[:200], n_bins=8),
                MergeableHistogram.from_data(data[200:] + 40.0, n_bins=32),
            ]),
        ):
            pool = [None] + bounds_of_interest(h, data)[::3]
            cases = 0
            for lo, hi in itertools.product(pool, repeat=2):
                for lo_closed, hi_closed in itertools.product((False, True), repeat=2):
                    iv = interval(lo, hi, lo_closed, hi_closed)
                    assert h.estimate_hits(iv) == mask_estimate(h, iv), iv
                    cases += 1
            assert cases > 2000

    def test_selectivity_is_the_estimate_over_the_total(self, rng):
        h = MergeableHistogram.from_data(rng.integers(0, 50, 300).astype(np.float64))
        iv = Interval(lo=10.0, hi=20.0, lo_closed=False)
        lower, upper = h.estimate_hits(iv)
        assert h.estimate_selectivity(iv) == (lower / h.total, upper / h.total)

    def test_serialized_form_carries_no_estimate_arrays(self, rng):
        h = MergeableHistogram.from_data(rng.random(400) * 10.0)
        before = pickle.dumps(h)
        estimate = h.estimate_hits(Interval(lo=2.0, hi=5.0))
        assert pickle.dumps(h) == before
        assert pickle.loads(before).estimate_hits(Interval(lo=2.0, hi=5.0)) == estimate
