"""Significant-digit binning (FastBit precision binning)."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.bitmap.binning import _decade_edges, assign_bins, sig_digit_edges

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


def full_grid_edges(vmin: float, vmax: float, precision: int) -> np.ndarray:
    """The reference: the whole 8-decade grid below the top magnitude,
    mirrored through 0, then sliced between the extrema's brackets."""
    abs_hi = max(abs(vmin), abs(vmax))
    if abs_hi == 0.0:
        return np.array([-1.0, 0.0, 1.0])
    hi_decade = int(math.floor(math.log10(abs_hi)))
    grid = np.concatenate(
        [_decade_edges(precision, d) for d in range(hi_decade - 7, hi_decade + 1)]
    )
    above = grid[grid > abs_hi]
    if above.size:
        pos = np.concatenate([grid[grid <= abs_hi], above[:1]])
    else:
        pos = np.concatenate([grid, _decade_edges(precision, hi_decade + 1)[:1]])
    edges = np.concatenate([-pos[::-1], [0.0], pos])
    lo_idx = max(0, int(np.searchsorted(edges, vmin, side="right") - 1))
    hi_idx = min(edges.size - 1, int(np.searchsorted(edges, vmax, side="right")))
    out = edges[lo_idx : hi_idx + 1]
    if out.size < 2:
        out = np.array([vmin, math.nextafter(vmax, math.inf)])
    return out


def seeded_extrema(seed: int, count: int):
    """``count`` (vmin, vmax) pairs of every shape: zero-crossing,
    negative-only, positive-only, sub-decade, a single value, ±0.0 ends,
    grid points, powers of ten and their lower neighbours, float32 images,
    and a magnitude far
    below the 8-decade window."""
    rng = np.random.default_rng(seed)
    magnitude = lambda: float(10.0 ** rng.uniform(-12, 12))  # noqa: E731
    pairs = []
    for i in range(count):
        a, b = sorted((magnitude(), magnitude()))
        kind = i % 8
        if kind == 0:
            pair = (-a if rng.random() < 0.5 else -b, b if rng.random() < 0.5 else a)
        elif kind == 1:
            pair = (-b, -a)
        elif kind == 2:
            pair = (a, b)
        elif kind == 3:
            pair = (a, a * (1 + rng.uniform(0, 0.5)))
            pair = pair if rng.random() < 0.5 else (-pair[1], -pair[0])
        elif kind == 4:
            pair = (a, a) if rng.random() < 0.5 else (-a, -a)
        elif kind == 5:
            # A power of ten's lower neighbour: log10 rounds it up to the
            # next decade (log10(99.99999999999999) == 2.0).
            ten = 10.0 ** int(rng.integers(-9, 9))
            grid_point = float(rng.integers(1, 100)) * 10.0 ** int(rng.integers(-9, 9))
            ends = [grid_point, ten, math.nextafter(ten, 0.0), 0.0, -0.0]
            pair = sorted(float(v) for v in rng.permutation(ends)[:2])
            pair = pair if rng.random() < 0.5 else (-pair[1], -pair[0])
        elif kind == 6:
            pair = tuple(float(v) for v in np.float32([a, b]))
        else:
            pair = (a * 1e-20, b) if rng.random() < 0.5 else (-b, -a * 1e-20)
        pairs.append((float(pair[0]), float(pair[1])))
    return pairs


class TestDecadeLocalEdges:
    """Only the decades between the extrema are built; the edges equal the
    whole mirrored grid's slice bit for bit."""

    @pytest.mark.parametrize("precision,count", [(1, 400), (2, 400), (3, 200), (4, 40), (5, 8)])
    def test_equals_the_full_grid(self, precision, count):
        for vmin, vmax in seeded_extrema(precision, count):
            edges = sig_digit_edges(vmin, vmax, precision)
            ref = full_grid_edges(vmin, vmax, precision)
            assert edges.tobytes() == ref.tobytes(), (vmin, vmax, precision)

    @pytest.mark.parametrize("vmin,vmax", [(3.1, 412.0), (3.25, 3.25), (-8.1e4, -2.2e4)])
    def test_precision_six(self, vmin, vmax):
        edges = sig_digit_edges(vmin, vmax, 6)
        assert edges.tobytes() == full_grid_edges(vmin, vmax, 6).tobytes()

    @given(st.lists(values, min_size=1, max_size=20), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_equals_the_full_grid_on_float32_data(self, vals, precision):
        data = np.array(vals, dtype=np.float64)
        vmin, vmax = float(data.min()), float(data.max())
        assert sig_digit_edges(vmin, vmax, precision).tobytes() == (
            full_grid_edges(vmin, vmax, precision).tobytes()
        )


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
