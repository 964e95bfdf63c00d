"""The counting pass and the coarsening of ``MergeableHistogram`` equal the
formulas they replaced, which are kept here as the reference.

The counting pass bins ``x`` as ``floor(x * 2^-e) - k`` (``width = 2^e``,
``k = start / width``); the reference divides, clips and corrects by two
comparisons.  ``coarsened`` sums runs of fine bins with ``np.add.reduceat``;
the reference scatters them with ``np.add.at``.  Results must agree in
width, start, counts and extrema bit for bit.

The inputs that matter are the roundings the two formulas handle
differently: ±0.0, a negative subnormal that scales to -0.0 at a width
above 1, widths down to 2^-1074, int64 values past 2^53, float32 input,
magnitudes up to 1e300, and grids that must coarsen past ``MAX_BINS``.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.histogram.mergeable import (
    MAX_BINS,
    MergeableHistogram,
    _exact_offset,
    round_down_pow2,
)
from tests.conftest import make_system

TINY = 5e-324  # 2^-1074, the least subnormal


# ------------------------------------------------------------ the reference
def reference_count(data: np.ndarray, width: float):
    """The counting pass before exact binning: divide, floor, clip, one
    corrective comparison each way, clip again."""
    true_min = float(data.min())
    true_max = float(data.max())
    start = math.floor(true_min / width) * width
    n_bins = int(math.floor((true_max - start) / width)) + 1
    while n_bins > MAX_BINS:
        width *= 2.0
        start = math.floor(true_min / width) * width
        n_bins = int(math.floor((true_max - start) / width)) + 1
    idx = np.floor((data - start) / width).astype(np.int64)
    np.clip(idx, 0, n_bins - 1, out=idx)
    idx -= (data < start + idx * width).astype(np.int64)
    idx += (data >= start + (idx + 1) * width).astype(np.int64)
    np.clip(idx, 0, n_bins - 1, out=idx)
    return width, start, np.bincount(idx, minlength=n_bins), true_min, true_max


def algorithm1_width(data, n_bins=64, sample_fraction=0.1, seed=0):
    """Algorithm 1's width choice from a sample."""
    data = np.asarray(data).astype(np.float64, copy=False)
    n_sample = max(1, int(data.size * sample_fraction))
    if n_sample >= data.size:
        sample = data
    else:
        sample = data[np.random.default_rng(seed).integers(0, data.size, size=n_sample)]
    span = float(sample.max()) - float(sample.min())
    if span <= 0.0:
        return round_down_pow2(max(abs(float(sample.min())), 1.0) * 2 ** -20)
    return round_down_pow2(span / n_bins)


def reference_from_data(data, n_bins=64, sample_fraction=0.1, seed=0):
    """Algorithm 1's width choice, then the reference counting pass."""
    width = algorithm1_width(data, n_bins, sample_fraction, seed)
    return reference_count(np.asarray(data).astype(np.float64, copy=False), width)


def reference_coarsened(h: MergeableHistogram, new_width: float):
    """Coarsening before runs: every fine bin's parent index, then one
    ``np.add.at`` scatter."""
    new_start = math.floor(h.start / new_width) * new_width
    ratio_i = 1 << (math.frexp(new_width)[1] - math.frexp(h.bin_width)[1])
    offset_bins = _exact_offset(h.start, new_start, h.bin_width)
    if ratio_i < (1 << 62) and offset_bins + h.n_bins < (1 << 62):
        coarse_idx = (offset_bins + np.arange(h.n_bins, dtype=np.int64)) // ratio_i
    else:
        coarse_idx = np.fromiter(
            ((offset_bins + k) // ratio_i for k in range(h.n_bins)),
            dtype=np.int64, count=h.n_bins,
        )
    counts = np.zeros(int(coarse_idx[-1]) + 1, dtype=np.int64)
    np.add.at(counts, coarse_idx, h.counts)
    return new_width, new_start, counts, h.data_min, h.data_max


def assert_same(h: MergeableHistogram, ref) -> None:
    width, start, counts, data_min, data_max = ref
    # ``hex`` tells -0.0 from 0.0: the fields must be equal bit for bit.
    assert float(h.bin_width).hex() == float(width).hex()
    assert float(h.start).hex() == float(start).hex()
    assert float(h.data_min).hex() == float(data_min).hex()
    assert float(h.data_max).hex() == float(data_max).hex()
    assert h.counts.dtype == np.int64
    np.testing.assert_array_equal(h.counts, counts)


def assert_least_fitting_grid(h: MergeableHistogram, data: np.ndarray, width: float) -> None:
    """Where the reference's grid of ``width`` overflows, the pass jumps to a
    coarser one: a power of two at least ``width`` that holds ``data`` in at
    most ``MAX_BINS`` bins, with exactly the reference's counts at that width,
    and half of it would not fit (``MAX_BINS`` bins or an overflow)."""
    values = data.astype(np.float64)
    assert h.bin_width == round_down_pow2(h.bin_width) and h.bin_width >= width
    assert h.n_bins <= MAX_BINS and h.total == values.size
    assert_same(h, reference_count(values, h.bin_width))
    if h.bin_width > width:
        try:
            finer = reference_count(values, h.bin_width / 2)
        except OverflowError:
            return
        assert finer[0] > h.bin_width / 2  # the reference had to coarsen too


def same_or_same_error(build, reference, data=None, width=None) -> None:
    """Both succeed and agree, or the reference's grid overflows (e.g. 1e300
    on a subnormal width) and the pass either refuses with the same error type
    or, given ``data`` and the requested ``width``, coarsens to the least
    grid that fits."""
    try:
        ref = reference()
    except (OverflowError, ValueError) as err:
        try:
            h = build()
        except type(err):
            return
        if data is None or not isinstance(err, OverflowError):
            raise AssertionError(f"the reference refused with {err!r}, the pass did not")
        assert_least_fitting_grid(h, data, width)
        return
    assert_same(build(), ref)


# ------------------------------------------------------------------ inputs
SPECIALS = [
    0.0, -0.0, TINY, -TINY, 3 * TINY, -3 * TINY, 2.0 ** -1022, -(2.0 ** -1022),
    1.0, -1.0, 0.5, -0.5, 2.0 ** 53, 2.0 ** 53 + 2, -(2.0 ** 53) - 2,
    1e300, -1e300, 100.0, -100.0,
]


@st.composite
def datasets(draw):
    """1-D arrays: mixed magnitudes, clusters on a power-of-two lattice
    (edges hit exactly), subnormal-only data, int64 past 2^53, float32."""
    kind = draw(st.sampled_from(["mixed", "lattice", "subnormal", "int64", "float32"]))
    n = draw(st.integers(1, 40))
    if kind == "int64":
        base = draw(st.integers(-(2 ** 63) + 2 ** 41, 2 ** 63 - 2 ** 41))
        offsets = draw(st.lists(st.integers(-(2 ** 40), 2 ** 40), min_size=n, max_size=n))
        return np.array([base + o for o in offsets], dtype=np.int64)
    if kind == "subnormal":
        ks = draw(st.lists(st.integers(-(2 ** 20), 2 ** 20), min_size=n, max_size=n))
        return np.array(ks, dtype=np.float64) * TINY
    if kind == "lattice":
        step = 2.0 ** draw(st.integers(-1074, 980))
        base = draw(st.integers(-(2 ** 30), 2 ** 30)) * step
        ks = draw(st.lists(st.integers(-(2 ** 12), 2 ** 12), min_size=n, max_size=n))
        extra = draw(st.lists(st.sampled_from([-TINY, -0.0, 0.0, TINY]), max_size=3))
        return np.array([base + k * step for k in ks] + extra, dtype=np.float64)
    value = st.one_of(
        st.sampled_from(SPECIALS),
        st.floats(-1e300, 1e300, allow_nan=False),
        st.floats(-1e3, 1e3, allow_nan=False),
        st.floats(-1e-300, 1e-300, allow_nan=False),
    )
    if kind == "float32":
        value = st.floats(allow_nan=False, allow_infinity=False, width=32)
        return np.array(draw(st.lists(value, min_size=n, max_size=n)), dtype=np.float32)
    return np.array(draw(st.lists(value, min_size=n, max_size=n)), dtype=np.float64)


def width_near(data: np.ndarray, shift: int) -> float:
    """A power-of-two width ``2^shift`` times the data's span (or its
    magnitude, for constant data), kept inside the double range."""
    values = data.astype(np.float64)
    span = float(values.max()) - float(values.min())
    scale = span if span > 0.0 else max(abs(float(values.max())), TINY)
    e = math.frexp(scale)[1] - 1 + shift
    return 2.0 ** min(max(e, -1074), 1023)


# ------------------------------------------------------------------- tests
class TestCountingPass:
    @given(datasets(), st.integers(-45, 4))
    @settings(max_examples=60, deadline=None)
    @example(np.array([-100.0, -TINY, 100.0]), 0)
    @example(np.array([-TINY, 1000.0]), -7)
    @example(np.array([0.0, TINY, 3 * TINY, -TINY]), -3)
    def test_from_data_width_equals_the_reference(self, data, shift):
        width = width_near(data, shift)
        values = data.astype(np.float64)
        same_or_same_error(
            lambda: MergeableHistogram.from_data_width(data, width),
            lambda: reference_count(values, width),
            data, width,
        )

    @given(datasets(), st.integers(1, 300), st.sampled_from([0.1, 0.5, 1.0]),
           st.integers(0, 2 ** 32))
    @settings(max_examples=60, deadline=None)
    def test_from_data_equals_the_reference(self, data, n_bins, fraction, seed):
        same_or_same_error(
            lambda: MergeableHistogram.from_data(data, n_bins, fraction, seed),
            lambda: reference_from_data(data, n_bins, fraction, seed),
            data, algorithm1_width(data, n_bins, fraction, seed),
        )

    def test_negative_subnormal_lands_one_bin_below_zero(self):
        # At width 2, -5e-324 * 2^-1 rounds to -0.0; its bin is [-2, 0).
        h = MergeableHistogram.from_data_width(np.array([-100.0, -TINY, 100.0]), 2.0)
        assert h.start == -100.0
        assert h.counts[49] == 1 and h.counts[50] == 0
        assert_same(h, reference_count(np.array([-100.0, -TINY, 100.0]), 2.0))

    def test_subnormal_width(self):
        data = np.array([-3 * TINY, -TINY, 0.0, TINY, 7 * TINY])
        h = MergeableHistogram.from_data_width(data, TINY)
        assert h.bin_width == TINY and h.start == -3 * TINY
        np.testing.assert_array_equal(h.counts, [1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 1])
        assert_same(h, reference_count(data, TINY))

    def test_a_subnormal_sample_under_an_ordinary_maximum_coarsens(self):
        """A region whose sample holds only its subnormals picks a subnormal
        width; its ordinary maximum then overflows the bin count, and the
        pass jumps to the least grid that fits instead of raising."""
        data = np.r_[np.arange(1000) * 1e-310, [1.0]]
        for seed in range(3):
            h = MergeableHistogram.from_data(data, seed=seed)
            assert h.bin_width == 2.0 ** -19 and h.start == 0.0
            assert h.counts[0] == 1000 and h.counts[-1] == 1
            assert_least_fitting_grid(h, data, algorithm1_width(data, seed=seed))
        sysm = make_system(region_size_bytes=data.size * 8)
        obj = sysm.create_object("subnormal", data)
        assert obj.meta.histograms.view(0).total == data.size
        assert (obj.rmin[0], obj.rmax[0]) == (0.0, 1.0)

    def test_coarsens_past_max_bins(self):
        data = np.linspace(0.0, 1.0, 1001)
        h = MergeableHistogram.from_data_width(data, 2.0 ** -30)
        assert h.n_bins <= MAX_BINS and h.bin_width == 2.0 ** -19
        assert_same(h, reference_count(data, 2.0 ** -30))


class TestCoarsenedByRuns:
    @given(datasets(), st.integers(-12, 0), st.integers(1, 1100))
    @settings(max_examples=60, deadline=None)
    @example(np.array([0.0, TINY, 9 * TINY]), -1, 1074 - 20)
    @example(np.array([-(2.0 ** -56), 3.0]), -60, 64)
    def test_equals_the_scatter(self, data, shift, up):
        fine = MergeableHistogram.from_data_width(data, width_near(data, shift))
        if math.frexp(fine.bin_width)[1] + up > 1024:
            return  # no such double
        new_width = math.ldexp(fine.bin_width, up)
        coarse = fine.coarsened(new_width)
        assert_same(coarse, reference_coarsened(fine, new_width))
        assert coarse.total == fine.total

    def test_merge_many_goes_through_runs(self):
        rng = np.random.default_rng(7)
        parts = [
            MergeableHistogram.from_data(rng.normal(loc, 2.0 ** s, 300), seed=i)
            for i, (loc, s) in enumerate([(0, -4), (3, 0), (-50, 3), (1e6, 5)])
        ]
        merged = MergeableHistogram.merge_many(parts)
        assert merged.total == 1200
        for p in parts:
            ref = reference_coarsened(p, merged.bin_width)
            assert_same(p.coarsened(merged.bin_width), ref)
