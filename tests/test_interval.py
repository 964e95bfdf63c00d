"""Unit + property tests for repro.interval.Interval."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.interval import Interval
from repro.types import QueryOp

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def random_interval(draw):
    lo = draw(st.one_of(st.none(), finite))
    hi = draw(st.one_of(st.none(), finite))
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    lo_closed = draw(st.booleans())
    hi_closed = draw(st.booleans())
    if lo is not None and lo == hi and not (lo_closed and hi_closed):
        lo_closed = hi_closed = True
    return Interval(lo=lo, hi=hi, lo_closed=lo_closed, hi_closed=hi_closed)


@st.composite
def interval_strategy(draw):
    return random_interval(draw)


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            Interval(lo=2.0, hi=1.0)

    def test_point_open_rejected(self):
        with pytest.raises(QueryError):
            Interval(lo=1.0, hi=1.0, lo_closed=False)

    def test_point_closed_ok(self):
        iv = Interval(lo=1.0, hi=1.0)
        assert iv.lo == iv.hi == 1.0
        assert iv.contains_value(1.0)

    def test_everything(self):
        iv = Interval()
        assert iv.lo is None and iv.hi is None
        assert iv.contains_value(1e308) and iv.contains_value(-1e308)

    @pytest.mark.parametrize(
        "op,inside,outside",
        [
            (QueryOp.GT, 2.5, 2.0),
            (QueryOp.GTE, 2.0, 1.99),
            (QueryOp.LT, 1.5, 2.0),
            (QueryOp.LTE, 2.0, 2.01),
            (QueryOp.EQ, 2.0, 2.01),
        ],
    )
    def test_from_op(self, op, inside, outside):
        iv = Interval.from_op(op, 2.0)
        assert iv.contains_value(inside)
        assert not iv.contains_value(outside)


class TestIntersect:
    def test_disjoint_is_none(self):
        a = Interval(lo=0.0, hi=1.0)
        b = Interval(lo=2.0, hi=3.0)
        assert a.intersect(b) is None

    def test_touching_closed_is_point(self):
        a = Interval(lo=0.0, hi=1.0)
        b = Interval(lo=1.0, hi=2.0)
        got = a.intersect(b)
        assert got is not None and got.lo == got.hi == 1.0

    def test_touching_open_is_none(self):
        a = Interval(lo=0.0, hi=1.0, hi_closed=False)
        b = Interval(lo=1.0, hi=2.0)
        assert a.intersect(b) is None

    def test_unbounded_sides(self):
        a = Interval(lo=1.0, hi=None)
        b = Interval(lo=None, hi=3.0)
        got = a.intersect(b)
        assert got == Interval(lo=1.0, hi=3.0)

    @given(interval_strategy(), interval_strategy(), finite)
    @settings(max_examples=300, deadline=None)
    def test_membership_matches_conjunction(self, a, b, v):
        """x ∈ a∩b  ⇔  x ∈ a and x ∈ b — the defining property."""
        both = a.contains_value(v) and b.contains_value(v)
        inter = a.intersect(b)
        got = inter is not None and inter.contains_value(v)
        assert got == both


class TestMasks:
    @given(interval_strategy(), st.lists(finite, min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_mask_matches_scalar(self, iv, values):
        data = np.array(values)
        mask = iv.mask(data)
        for v, m in zip(values, mask):
            assert bool(m) == iv.contains_value(v)

    @pytest.mark.parametrize("lo,lo_closed", [(None, True), (2.0, True), (2.0, False)])
    @pytest.mark.parametrize("hi,hi_closed", [(None, True), (4.0, True), (4.0, False)])
    def test_mask_every_bound_shape(self, lo, lo_closed, hi, hi_closed):
        """Absent / closed / open on either side, ``everything()`` among
        them: a fresh bool array of the data's shape, also for no data."""
        iv = Interval(lo=lo, hi=hi, lo_closed=lo_closed, hi_closed=hi_closed)
        assert (iv == Interval()) == (lo is None and hi is None)
        data = np.array([1.0, 2.0, 3.0, 4.0, 5.0], dtype=np.float32)
        above = np.ones(5, bool) if lo is None else (data >= lo if lo_closed else data > lo)
        below = np.ones(5, bool) if hi is None else (data <= hi if hi_closed else data < hi)
        for values, want in ((data, above & below), (data[:0], np.zeros(0, bool))):
            got = iv.mask(values)
            assert got.dtype == np.bool_ and got.shape == values.shape
            assert np.array_equal(got, want)
            got[:] = False  # never a view of something shared
            assert np.array_equal(iv.mask(values), want)

    @given(interval_strategy(), finite, finite)
    @settings(max_examples=200, deadline=None)
    def test_vector_range_tests_match_scalar(self, iv, a, b):
        lo, hi = min(a, b), max(a, b)
        assert bool(iv.overlaps_range_arrays(np.array([lo]), np.array([hi]))[0]) == iv.overlaps_range(lo, hi)
        assert bool(iv.contains_range_arrays(np.array([lo]), np.array([hi]))[0]) == (iv.contains_value(lo) and iv.contains_value(hi))

    @given(interval_strategy(), finite, finite)
    @settings(max_examples=200, deadline=None)
    def test_contains_implies_overlaps(self, iv, a, b):
        lo, hi = min(a, b), max(a, b)
        if iv.contains_value(lo) and iv.contains_value(hi):
            assert iv.overlaps_range(lo, hi)

    def test_overlap_open_endpoint_excluded(self):
        iv = Interval(lo=2.0, hi=None, lo_closed=False)  # x > 2
        assert not iv.overlaps_range(1.0, 2.0)  # touches only at 2.0
        iv2 = Interval(lo=2.0, hi=None, lo_closed=True)  # x >= 2
        assert iv2.overlaps_range(1.0, 2.0)


class TestMisc:
    def test_finite_bounds(self):
        import math

        assert Interval().finite_bounds() == (-math.inf, math.inf)
        assert Interval(lo=1.0, hi=2.0).finite_bounds() == (1.0, 2.0)

    def test_str_rendering(self):
        assert str(Interval(lo=1.0, hi=2.0, hi_closed=False)) == "[1, 2)"
        assert str(Interval()) == "(-inf, +inf)"

    def test_clip_like_semantics_via_mask(self):
        data = np.arange(10, dtype=float)
        iv = Interval(lo=3.0, hi=6.0, lo_closed=True, hi_closed=False)
        assert np.flatnonzero(iv.mask(data)).tolist() == [3, 4, 5]
