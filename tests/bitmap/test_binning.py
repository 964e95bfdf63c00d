"""Significant-digit binning (FastBit precision binning)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.bitmap.binning import assign_bins, sig_digit_edges

values = st.floats(min_value=-1e5, max_value=1e5, allow_nan=False, width=32)


class TestEdges:
    @given(st.lists(values, min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_edges_cover_data(self, vals):
        data = np.array(vals, dtype=np.float64)
        edges = sig_digit_edges(data.min(), data.max(), precision=2)
        assert np.all(np.diff(edges) > 0)
        assert data.min() >= edges[0]
        assert data.max() < edges[-1]

    @pytest.mark.parametrize("precision", [1, 2, 3])
    def test_grid_values_have_precision_digits(self, precision):
        edges = sig_digit_edges(1.0, 9.9, precision)
        # Every positive edge equals itself rounded to `precision`
        # significant digits.
        pos = edges[edges > 0]
        for e in pos:
            import math

            digits = precision - 1 - int(math.floor(math.log10(abs(e))))
            assert round(e, digits) == pytest.approx(e, rel=1e-12)

    def test_paper_query_endpoints_on_grid(self):
        """The paper's query constants (2.1, 2.2, ..., 3.6) must be exact
        edges at precision 2 — that is why precision 2 'is sufficient'."""
        edges = sig_digit_edges(0.01, 5.0, precision=2)
        for v in (2.1, 2.2, 3.5, 3.6, 2.0, 1.3):
            assert np.any(np.isclose(edges, v, rtol=0, atol=1e-12)), v

    def test_negative_and_zero(self):
        edges = sig_digit_edges(-50.0, 50.0, 2)
        assert edges[0] < -50.0 or edges[0] == -51.0 or edges[0] <= -50
        assert np.any(edges == 0.0)

    def test_all_zero(self):
        edges = sig_digit_edges(0.0, 0.0, 2)
        assert edges[0] <= 0.0 < edges[-1]

    def test_bad_precision(self):
        with pytest.raises(IndexError_):
            sig_digit_edges(0.0, 1.0, 0)
        with pytest.raises(IndexError_):
            sig_digit_edges(0.0, 1.0, 9)

    def test_bad_range(self):
        with pytest.raises(IndexError_):
            sig_digit_edges(2.0, 1.0, 2)
        with pytest.raises(IndexError_):
            sig_digit_edges(float("nan"), 1.0, 2)


class TestAssignBins:
    @given(st.lists(values, min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_every_element_in_declared_bin(self, vals):
        data = np.array(vals, dtype=np.float64)
        edges = sig_digit_edges(data.min(), data.max(), 2)
        idx = assign_bins(data, edges)
        assert np.all(data >= edges[idx])
        assert np.all(data < edges[idx + 1])

    def test_out_of_span_rejected(self):
        edges = np.array([0.0, 1.0, 2.0])
        with pytest.raises(IndexError_):
            assign_bins(np.array([5.0]), edges)
