"""Algorithm 1 invariants and merge exactness — the paper's core data
structure."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import QueryError
from repro.histogram.mergeable import MergeableHistogram, round_down_pow2
from repro.interval import Interval
from repro.types import QueryOp

# Data arrays with a wide spread of magnitudes, float32-ish like VPIC.
data_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 400),
    elements=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, width=32),
)


def is_power_of_two(x: float) -> bool:
    m, e = math.frexp(x)
    return m == 0.5


class TestRoundDownPow2:
    @pytest.mark.parametrize(
        "x,expected",
        [(1.0, 1.0), (1.5, 1.0), (2.0, 2.0), (3.99, 2.0), (0.3, 0.25), (0.125, 0.125)],
    )
    def test_examples(self, x, expected):
        assert round_down_pow2(x) == expected

    @given(st.floats(min_value=1e-30, max_value=1e30))
    @settings(max_examples=200, deadline=None)
    def test_result_is_pow2_and_bounded(self, x):
        r = round_down_pow2(x)
        assert is_power_of_two(r)
        assert r <= x < 2 * r

    @given(st.one_of(
        st.floats(min_value=5e-324, max_value=1.7e308),
        st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),  # subnormal
        st.integers(-1074, 1023).map(lambda k: math.ldexp(1.0, k)),
        st.integers(-1021, 1023).map(lambda k: math.nextafter(math.ldexp(1.0, k), 0.0)),
    ))
    @settings(max_examples=300, deadline=None)
    def test_result_is_the_largest_pow2_not_above(self, x):
        """Over normal, subnormal and power-of-two floats and their lower
        neighbours: ``log2`` rounded 7.999999999999999 up to 8.0."""
        r = round_down_pow2(x)
        assert is_power_of_two(r)
        assert r <= x < 2 * r

    @pytest.mark.parametrize("k", [-1073, -1022, -5, 0, 3, 10, 60, 1023])
    def test_just_below_a_power_of_two(self, k):
        x = math.nextafter(math.ldexp(1.0, k), 0.0)
        assert round_down_pow2(x) == math.ldexp(1.0, k - 1)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_inputs(self, bad):
        with pytest.raises(ValueError):
            round_down_pow2(bad)


class TestAlgorithm1Invariants:
    @given(data_arrays, st.integers(1, 128))
    @settings(max_examples=150, deadline=None)
    def test_construction_invariants(self, data, n_bins):
        h = MergeableHistogram.from_data(data, n_bins=n_bins)
        # Width is a power of two.
        assert is_power_of_two(h.bin_width)
        # Start is an exact multiple of the width (grid alignment).
        assert math.floor(h.start / h.bin_width) * h.bin_width == h.start
        # Counts are exact.
        assert h.total == data.size
        # True extrema recorded.
        assert h.data_min == data.min()
        assert h.data_max == data.max()
        # All data lie inside the bin span.
        assert h.start <= h.data_min
        assert h.data_max < h.start + h.n_bins * h.bin_width or (
            h.data_max == h.start + h.n_bins * h.bin_width  # right-edge value
        )

    def test_bin_counts_match_numpy(self, rng):
        data = rng.normal(5.0, 2.0, 10_000)
        h = MergeableHistogram.from_data(data, n_bins=64)
        counts, _ = np.histogram(data, bins=h.boundaries)
        # The last numpy bin is closed; ours is half-open with the max value
        # in the final bin either way.
        assert counts.sum() == h.total
        assert np.array_equal(counts, h.counts)

    def test_constant_data(self):
        h = MergeableHistogram.from_data(np.full(100, 3.7))
        assert h.total == 100
        assert h.data_min == h.data_max == pytest.approx(3.7)

    def test_zero_data(self):
        h = MergeableHistogram.from_data(np.zeros(10))
        assert h.total == 10

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            MergeableHistogram.from_data(np.array([]))

    def test_2d_rejected(self):
        with pytest.raises(QueryError):
            MergeableHistogram.from_data(np.zeros((2, 2)))

    def test_bad_bins_rejected(self):
        with pytest.raises(QueryError):
            MergeableHistogram.from_data(np.arange(10.0), n_bins=0)

    def test_requests_at_least_n_bins(self, rng):
        """Algorithm 1: the result has at least Nbin bins (width rounds
        *down*), except for degenerate near-constant data."""
        data = rng.random(5000) * 100
        for n_bins in (8, 32, 64, 128):
            h = MergeableHistogram.from_data(data, n_bins=n_bins)
            assert h.n_bins >= n_bins

    def test_outliers_extend_rather_than_clamp(self, rng):
        """Sampling may miss the extremes; the full pass must still count
        them exactly (our variant extends the grid)."""
        data = np.concatenate([rng.random(1000), [1e4], [-1e4]])
        h = MergeableHistogram.from_data(data, n_bins=32, sample_fraction=0.05)
        assert h.total == data.size
        assert h.data_min == -1e4 and h.data_max == 1e4

    def test_deterministic_given_seed(self, rng):
        data = rng.random(1000)
        a = MergeableHistogram.from_data(data, seed=7)
        b = MergeableHistogram.from_data(data, seed=7)
        assert a.bin_width == b.bin_width and np.array_equal(a.counts, b.counts)


class TestMerge:
    @given(st.lists(data_arrays, min_size=2, max_size=5), st.integers(4, 64))
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_histogram_of_concatenation(self, arrays, n_bins):
        """Merging region histograms == one histogram over all data,
        re-binned onto the merged grid.  This is the exactness claim of §IV."""
        hists = [MergeableHistogram.from_data(a, n_bins=n_bins) for a in arrays]
        merged = MergeableHistogram.merge_many(hists)
        alldata = np.concatenate(arrays)
        # Count preservation.
        assert merged.total == alldata.size
        assert merged.data_min == alldata.min()
        assert merged.data_max == alldata.max()
        # Exact per-bin equality with a direct count on the merged grid
        # (searchsorted compares exactly, unlike a floor division).
        idx = np.searchsorted(merged.boundaries, alldata, side="right") - 1
        np.clip(idx, 0, merged.n_bins - 1, out=idx)
        direct = np.bincount(idx, minlength=merged.n_bins)
        assert np.array_equal(direct, merged.counts)

    def test_merge_exact_at_extreme_width_ratio(self):
        """Regression: coarsening a subnormal-width grid (width 2^-149)
        onto a 2^-20 grid must compute the bin offset exactly.  The float
        subtraction ``start - new_start`` absorbs the fine start entirely
        at this ratio, which used to slide the subnormal's count into the
        neighbouring coarse bin."""
        a = np.array([0.0])
        b = np.zeros(80)
        b[1] = -5.605193857299268e-45
        merged = MergeableHistogram.merge_many(
            [MergeableHistogram.from_data(x, n_bins=4) for x in (a, b)]
        )
        alldata = np.concatenate([a, b])
        assert merged.total == alldata.size
        idx = np.searchsorted(merged.boundaries, alldata, side="right") - 1
        np.clip(idx, 0, merged.n_bins - 1, out=idx)
        assert np.array_equal(
            np.bincount(idx, minlength=merged.n_bins), merged.counts
        )

    @given(data_arrays, data_arrays)
    @settings(max_examples=100, deadline=None)
    def test_pairwise_merge_commutative(self, a, b):
        ha = MergeableHistogram.from_data(a, n_bins=16)
        hb = MergeableHistogram.from_data(b, n_bins=16)
        ab = ha.merge(hb)
        ba = hb.merge(ha)
        assert ab.bin_width == ba.bin_width
        assert ab.start == ba.start
        assert np.array_equal(ab.counts, ba.counts)

    def test_merged_width_is_max(self, rng):
        narrow = MergeableHistogram.from_data(rng.random(500), n_bins=64)
        wide = MergeableHistogram.from_data(rng.random(500) * 1000, n_bins=8)
        merged = narrow.merge(wide)
        assert merged.bin_width == max(narrow.bin_width, wide.bin_width)

    def test_merge_many_empty_rejected(self):
        with pytest.raises(QueryError):
            MergeableHistogram.merge_many([])

    def test_coarsen_preserves_total(self, rng):
        h = MergeableHistogram.from_data(rng.random(2000), n_bins=64)
        c = h.coarsened(h.bin_width * 8)
        assert c.total == h.total
        assert c.bin_width == h.bin_width * 8

    def test_coarsen_identity(self, rng):
        h = MergeableHistogram.from_data(rng.random(100), n_bins=8)
        assert h.coarsened(h.bin_width) is h

    def test_coarsen_non_multiple_rejected(self, rng):
        h = MergeableHistogram.from_data(rng.random(100), n_bins=8)
        with pytest.raises(QueryError):
            h.coarsened(h.bin_width * 3)
        with pytest.raises(QueryError):
            h.coarsened(h.bin_width / 2)


def merge_aligned_reference(coarse):
    """The per-operand loop ``merge_aligned`` replaced."""
    width = coarse[0].bin_width
    start = min(h.start for h in coarse)
    end = max(h.start + h.n_bins * width for h in coarse)
    counts = np.zeros(round((end - start) / width), dtype=np.int64)
    for h in coarse:
        off = round((h.start - start) / width)
        counts[off : off + h.n_bins] += h.counts
    return start, counts


class TestAlignedMerge:
    @pytest.fixture
    def coarse(self, rng):
        hists = [
            MergeableHistogram.from_data(rng.gamma(2.0, 0.7, 500) + shift, n_bins=16)
            for shift in (0.0, 3.0, -2.5, 40.0, 3.0)
        ]
        width = max(h.bin_width for h in hists)
        return [h.coarsened(width) for h in hists]

    def test_equals_the_loop(self, coarse):
        merged = MergeableHistogram.merge_aligned(coarse)
        start, counts = merge_aligned_reference(coarse)
        assert merged.start == start
        assert np.array_equal(merged.counts, counts)
        assert merged.data_min == min(h.data_min for h in coarse)
        assert merged.data_max == max(h.data_max for h in coarse)

    @pytest.mark.parametrize("changed", [[0], [3], [1, 3], [0, 1, 2, 3, 4]])
    def test_replaced_equals_a_full_merge(self, coarse, rng, changed):
        """Replacing a histogram table's rows — the one that sets the span's
        top (3) or bottom (2) included — trades them in the global counts
        (``HistogramTable.put``) and equals merging the new list from
        scratch."""
        from repro.histogram.global_hist import HistogramTable

        table = HistogramTable.of(coarse, [0] * len(coarse))
        table.merge()
        width = table.global_histogram.merged.bin_width
        new = list(coarse)
        for i in changed:
            fresh = MergeableHistogram.from_data(rng.uniform(1.0, 2.0, 300), n_bins=4)
            assert fresh.bin_width <= width
            new[i] = fresh.coarsened(width)
        table.put(changed, HistogramTable.of([new[i] for i in changed], [0] * len(changed)))
        got = table.global_histogram.merged
        want = MergeableHistogram.merge_many(new)
        assert got.bin_width == width
        for field in ("bin_width", "start", "data_min", "data_max"):
            assert getattr(got, field) == getattr(want, field), field
        assert np.array_equal(got.counts, want.counts)

    def test_merge_of_equal_widths_coarsens_nothing(self, coarse, monkeypatch):
        calls = []
        real = MergeableHistogram.coarsened
        monkeypatch.setattr(
            MergeableHistogram, "coarsened",
            lambda self, w: (calls.append(w), real(self, w))[1],
        )
        coarse[0].merge(coarse[1])
        assert calls == []


class TestEstimation:
    @given(
        data_arrays,
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds_bracket_truth(self, data, a, b):
        """§III-D2: lower/upper hit bounds must bracket the exact count."""
        lo, hi = min(a, b), max(a, b)
        assume(lo < hi)  # open-open needs a non-degenerate window
        iv = Interval(lo=lo, hi=hi, lo_closed=False, hi_closed=False)
        h = MergeableHistogram.from_data(data, n_bins=32)
        lower, upper = h.estimate_hits(iv)
        truth = int(((data > lo) & (data < hi)).sum())
        assert lower <= truth <= upper

    @given(data_arrays, st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_one_sided_bounds_bracket_truth(self, data, v):
        for op in (QueryOp.GT, QueryOp.GTE, QueryOp.LT, QueryOp.LTE):
            iv = Interval.from_op(op, v)
            h = MergeableHistogram.from_data(data, n_bins=32)
            lower, upper = h.estimate_hits(iv)
            truth = int(op.apply(data, v).sum())
            assert lower <= truth <= upper, op

    def test_selectivity_in_unit_range(self, rng):
        data = rng.random(1000)
        h = MergeableHistogram.from_data(data)
        lo, hi = h.estimate_selectivity(Interval(lo=0.2, hi=0.4))
        assert 0.0 <= lo <= hi <= 1.0

    def test_no_overlap_estimates_zero(self, rng):
        data = rng.random(1000)
        h = MergeableHistogram.from_data(data)
        assert h.estimate_hits(Interval(lo=5.0, hi=6.0)) == (0, 0)
        assert not h.overlaps(Interval(lo=5.0, hi=6.0))

    def test_covering_interval_estimates_total(self, rng):
        data = rng.random(1000)
        h = MergeableHistogram.from_data(data)
        lower, upper = h.estimate_hits(Interval(lo=-1.0, hi=2.0))
        assert lower == upper == 1000


class TestSerialization:
    def test_nbytes_positive_and_scales_with_bins(self, rng):
        small = MergeableHistogram.from_data(rng.random(500), n_bins=8)
        big = MergeableHistogram.from_data(rng.random(500), n_bins=128)
        assert 0 < small.nbytes < big.nbytes


class TestExtremeWidthRatios:
    """Merging histograms whose bin widths differ by huge power-of-two
    ratios (regression: ``coarsened`` overflowed int64 at ratio 2^63)."""

    def test_coarsen_across_2_63_ratio(self):
        # bin_width = 2^-55ish vs new_width = 2^8: ratio is exactly 2^63,
        # one past int64 max.  This exact instance crashed with
        # OverflowError before the fix.
        h = MergeableHistogram(
            bin_width=2.7755575615628914e-17,
            start=0.0,
            counts=np.array([1, 0, 0, 0, 0, 79], dtype=np.int64),
            data_min=0.0,
            data_max=1.435314005083561e-16,
        )
        c = h.coarsened(256.0)
        assert c.bin_width == 256.0
        assert c.total == h.total
        assert c.counts.sum() == 80

    @given(
        fine_exp=st.integers(-60, -10),
        coarse_exp=st.integers(0, 60),
        n_bins=st.integers(1, 32),
    )
    @settings(max_examples=60, deadline=None)
    def test_coarsen_any_pow2_ratio_conserves_mass(self, fine_exp, coarse_exp, n_bins):
        width = 2.0 ** fine_exp
        counts = np.arange(1, n_bins + 1, dtype=np.int64)
        h = MergeableHistogram(
            bin_width=width,
            start=0.0,
            counts=counts,
            data_min=0.0,
            data_max=width * n_bins,
        )
        c = h.coarsened(2.0 ** coarse_exp)
        assert c.total == h.total
        assert c.bin_width == 2.0 ** coarse_exp

    @given(
        span_a=st.integers(-40, -5),
        span_b=st.integers(5, 40),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_disjoint_spans_extreme_widths(self, span_a, span_b, seed):
        """Two histograms over disjoint spans with widths differing by a
        large power-of-two ratio: the merge must conserve mass, use the
        wider grid, and count every sample into the right coarse bin."""
        rng = np.random.default_rng(seed)
        # One tiny-span dataset (subnormal-adjacent widths) ...
        a = (rng.random(50) * 2.0 ** span_a).astype(np.float64)
        # ... one wide-span dataset, far away and disjoint.
        b = (rng.random(80) * 2.0 ** span_b + 2.0 ** (span_b + 1)).astype(np.float64)
        ha = MergeableHistogram.from_data(a, n_bins=8)
        hb = MergeableHistogram.from_data(b, n_bins=8)
        merged = ha.merge(hb)
        assert merged.total == ha.total + hb.total
        assert merged.bin_width == max(ha.bin_width, hb.bin_width)
        # The merged grid must agree with histogramming the concatenation
        # onto the same bins.
        both = np.concatenate([a, b])
        expected, _ = np.histogram(
            both,
            bins=merged.n_bins,
            range=(merged.start, merged.start + merged.n_bins * merged.bin_width),
        )
        assert np.array_equal(merged.counts, expected)

    def test_offset_equals_the_fraction_formula(self):
        """The fine-bin offset ``coarsened`` computes in integer ratios is
        the ``Fraction`` quotient it replaced — for subnormal, huge,
        negative and mixed-sign starts on the fine grid."""
        from fractions import Fraction

        from repro.histogram.mergeable import _exact_offset

        rng = np.random.default_rng(5)
        cases = [(5e-324, 0.0, 5e-324), (-5e-324, -0.0, 5e-324), (-3.0, -4.0, 0.25),
                 (1e300, 0.0, 2.0 ** 900)]
        for _ in range(300):
            width = 2.0 ** int(rng.integers(-1074, 60))
            start = int(rng.integers(-2**52, 2**52)) * width  # on the fine grid
            new_width = width * 2.0 ** int(rng.integers(1, 200))
            cases.append((start, math.floor(start / new_width) * new_width, width))
        for start, new_start, width in cases:
            want = int((Fraction(start) - Fraction(new_start)) / Fraction(width))
            assert _exact_offset(start, new_start, width) == want, (start, new_start, width)

    def test_merge_many_mixed_extreme_widths(self):
        rng = np.random.default_rng(0)
        datasets = [
            rng.random(20) * 1e-16,
            rng.random(20) * 1e3 + 1e4,
            rng.random(20) * 1.0,
        ]
        hists = [MergeableHistogram.from_data(d, n_bins=6) for d in datasets]
        merged = MergeableHistogram.merge_many(hists)
        assert merged.total == sum(h.total for h in hists)


class TestQuantile:
    @given(data_arrays, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_quantile_within_data_range(self, data, q):
        h = MergeableHistogram.from_data(data, n_bins=32, sample_fraction=1.0)
        v = h.quantile(q)
        assert h.data_min <= v <= h.data_max

    def test_endpoints_are_exact_extrema(self):
        rng = np.random.default_rng(11)
        data = rng.normal(0.0, 3.0, 5000)
        h = MergeableHistogram.from_data(data, n_bins=64, sample_fraction=1.0)
        assert h.quantile(0.0) == h.data_min == data.min()
        assert h.quantile(1.0) == h.data_max == data.max()

    def test_monotonic_in_q(self):
        rng = np.random.default_rng(12)
        data = rng.gamma(2.0, 0.7, 4000)
        h = MergeableHistogram.from_data(data, n_bins=64, sample_fraction=1.0)
        qs = np.linspace(0.0, 1.0, 21)
        vs = [h.quantile(float(q)) for q in qs]
        assert vs == sorted(vs)

    def test_accuracy_vs_numpy(self):
        rng = np.random.default_rng(13)
        data = rng.exponential(1.0, 20000)
        h = MergeableHistogram.from_data(data, n_bins=128, sample_fraction=1.0)
        for q in (0.5, 0.95, 0.99):
            est = h.quantile(q)
            true = float(np.quantile(data, q))
            # Binned estimate: within one bin width of the truth.
            assert abs(est - true) <= h.bin_width + 1e-12

    def test_invalid_inputs(self):
        h = MergeableHistogram.from_data(
            np.array([1.0, 2.0]), n_bins=8, sample_fraction=1.0
        )
        with pytest.raises(QueryError):
            h.quantile(1.5)
        with pytest.raises(QueryError):
            h.quantile(-0.1)


@st.composite
def adjacent_values(draw):
    """A handful of adjacent float64 values (a few ulps apart), or int64
    values past 2**57, whose float64 copies step by 32 or more: either
    way the bins Algorithm 1 picks are narrower than an ulp."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 600))
    if draw(st.booleans()):
        base = draw(st.floats(min_value=1e-3, max_value=1e6))
        values = base + np.arange(draw(st.integers(2, 40))) * np.spacing(base)
        return values[rng.integers(0, values.size, n)]
    base = 2 ** draw(st.integers(57, 61))
    return (base + rng.integers(0, draw(st.integers(2, 2000)), n)).astype(np.int64)


class TestBinsNarrowerThanAnUlp:
    @given(adjacent_values())
    @settings(max_examples=40, deadline=None)
    def test_build_merge_and_delta_update_exactly(self, values):
        """Each region's histogram counts its values, the global one is the
        from-scratch merge, and a delta overwrite keeps both exact."""
        from tests.conftest import assert_histograms_fresh, make_system

        def assert_exact(obj):
            for rid, (off, n) in enumerate(zip(obj.offsets, obj.counts)):
                span = obj.data[off : off + n].astype(np.float64)
                row = obj.meta.histograms.view(rid)
                assert row.equivalent(MergeableHistogram.from_data_width(span, row.bin_width))
            assert_histograms_fresh(sysm, obj)
            assert obj.meta.global_histogram.merged.total == obj.n_elements

        sysm = make_system(region_size_bytes=8 * 64)  # 64 elements per region
        sysm.create_object("o", values)
        obj = sysm.get_object("o")
        assert_exact(obj)
        halves = np.array_split(values.astype(np.float64), 2)
        merged = MergeableHistogram.from_data(halves[0], n_bins=50).merge(
            MergeableHistogram.from_data(halves[1], n_bins=50))
        assert merged.total == values.size
        assert merged.equivalent(MergeableHistogram.from_data_width(
            values.astype(np.float64), merged.bin_width))
        sysm.update_object_region("o", values.size // 3, values[::-1][: values.size // 2 + 1],
                                  maintenance="delta")
        assert_exact(obj)
