"""Mergeable per-region histograms — Algorithm 1 of the paper.

The paper's key constraint (§IV): per-region histograms must be generated
*without global communication* yet remain mergeable into one global
histogram.  Algorithm 1 achieves this by construction:

1. sample ~10 % of the region's data for an approximate min/max;
2. compute a raw bin width for the requested number of bins, then round it
   **down to a power of two** (``..., 0.25, 0.5, 1, 2, 4, ...``) — so any
   two regions' widths divide one another;
3. anchor the first bin boundary on the integer grid *aligned to the bin
   width* — so every boundary lies in ``{k · 2^x}`` and the boundary grids
   of any two histograms nest exactly.

(The paper anchors at a natural number; we additionally align the anchor to
a multiple of the width, which is required for exact nesting when the width
exceeds 1 and is a strict subset of the paper's boundary set otherwise.)

The full pass then bin-counts every element in three array passes and a
``bincount``: element ``x`` lies in bin ``floor(x · 2^-e) − start / 2^e``
for width ``2^e``, and each step is exact (DESIGN.md §5, "Exact
power-of-two binning").  Elements outside the sampled min/max estimate
extend the histogram rather than clamping into edge bins, so counts stay
exact; true min/max are recorded for region elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from ..errors import QueryError
from ..interval import Interval

__all__ = ["MAX_BINS", "MergeableHistogram", "fit_grid", "round_down_pow2"]

#: Most bins one histogram's grid may span: a counting pass coarsens past
#: it, and a delta patch that would cross it rebuilds instead.
MAX_BINS = 1 << 20
#: The finest bin width, the least positive double (2^-1074).
_FINEST = math.ulp(0.0)
#: Share of a region's elements Algorithm 1 samples for its width.
SAMPLE_FRACTION = 0.1


def round_down_pow2(x: float) -> float:
    """Largest power of two ``<= x`` (x > 0).  Exact in binary floating
    point, so all downstream boundary arithmetic is exact too: the
    exponent comes from ``frexp``, never from a rounded ``log2`` (which
    gives 3.0 for 7.999999999999999), and subnormals are exact."""
    if not (x > 0) or math.isinf(x) or math.isnan(x):
        raise ValueError(f"cannot round {x!r} to a power of two")
    return math.ldexp(1.0, math.frexp(x)[1] - 1)


def _constant_width(value: float) -> float:
    """Width for near-constant data: tiny, so the histogram still localizes
    the value."""
    return round_down_pow2(max(abs(value), 1.0) * 2 ** -20)


def fit_grid(true_min: float, true_max: float, width: float) -> Tuple[float, float, int]:
    """``(width, start, n_bins)``: the aligned grid of ``width`` over
    ``[true_min, true_max]``, or of the least coarser power of two whose
    grid spans it in at most :data:`MAX_BINS` bins."""
    try:
        start, n_bins = _aligned_grid(true_min, true_max, width)
    except OverflowError:
        # So fine a width for these values that the bin count overflows
        # a double (a region whose sample held only its subnormals, say):
        # jump to the largest power of two under span / MAX_BINS, below
        # which no grid fits, and let the loop finish.
        span = true_max / MAX_BINS - true_min / MAX_BINS
        least = round_down_pow2(span) if span > 0.0 else _constant_width(true_min)
        width = max(width, least)
        start, n_bins = _aligned_grid(true_min, true_max, width)
    # Guard against pathological widths producing absurd bin counts
    # (e.g. one extreme outlier): coarsen until manageable.
    while n_bins > MAX_BINS:
        width *= 2.0
        start, n_bins = _aligned_grid(true_min, true_max, width)
    return width, start, n_bins


def _aligned_grid(true_min: float, true_max: float, width: float) -> Tuple[float, int]:
    """Lines 4-5: ``(start, n_bins)`` of the grid of ``width`` anchored at a
    multiple of it, so every boundary lies in ``{k * width}`` exactly.
    Raises ``OverflowError`` when the bin count overflows a double."""
    start = math.floor(true_min / width) * width
    return start, int(math.floor((true_max - start) / width)) + 1


@dataclass
class MergeableHistogram:
    """A histogram whose bin grid nests with any other instance's grid.

    Invariants (property-tested):

    * ``bin_width`` is an exact power of two;
    * ``start`` is an exact integer multiple of ``bin_width``;
    * ``counts.sum() == total`` equals the number of elements histogrammed;
    * ``data_min``/``data_max`` are the true extrema of the data.
    """

    bin_width: float
    start: float
    counts: np.ndarray
    data_min: float
    data_max: float

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 1 or self.counts.size == 0:
            raise QueryError("histogram needs a non-empty 1-D count array")
        if self.bin_width <= 0:
            raise QueryError("bin_width must be positive")

    # ------------------------------------------------------------ construction
    @classmethod
    def from_data(
        cls,
        data: np.ndarray,
        n_bins: int = 64,
        sample_fraction: float = SAMPLE_FRACTION,
        seed: int = 0,
    ) -> "MergeableHistogram":
        """Algorithm 1: build a mergeable histogram of 1-D ``data``.

        ``n_bins`` is the *lower bound* ``Nbin`` of the algorithm — the
        result may have more bins (never fewer, except for degenerate
        near-constant data where one bin suffices).
        """
        data = np.asarray(data)
        if data.ndim != 1 or data.size == 0:
            raise QueryError("histogram needs non-empty 1-D data")
        if n_bins < 1:
            raise QueryError("n_bins must be >= 1")
        data = data.astype(np.float64, copy=False)

        # Line 1: random-sample ~10% for an approximate min/max.  The
        # estimate only seeds the bin width; exactness is restored below.
        n_sample = max(1, int(data.size * sample_fraction))
        if n_sample >= data.size:
            sample = data
        else:
            rng = np.random.default_rng(seed)
            sample = data[rng.integers(0, data.size, size=n_sample)]
        approx_min = float(sample.min())
        approx_max = float(sample.max())

        # Line 2-3: raw width for n_bins bins, rounded down to a power of 2.
        # A span of a few subnormals over n_bins underflows to 0: the
        # finest grid there is, 2^-1074, then.
        span = approx_max - approx_min
        if span <= 0.0:
            width = _constant_width(approx_min)
        else:
            width = round_down_pow2(max(span / n_bins, _FINEST))

        return cls._count_into_grid(data, width)

    @classmethod
    def from_data_width(cls, data: np.ndarray, width: float) -> "MergeableHistogram":
        """Exact histogram of ``data`` on the aligned grid of ``width``.

        The continuous-ingest delta path uses this to build an epoch's
        delta histogram on the *same* grid as the maintained region
        histogram, so :meth:`merge` (appends / new values) and
        :meth:`subtract` (overwritten old values) are exact bin-for-bin.
        ``width`` must be a positive power of two.
        """
        data = np.asarray(data)
        if data.ndim != 1 or data.size == 0:
            raise QueryError("histogram needs non-empty 1-D data")
        if width != round_down_pow2(width):
            raise QueryError(f"width {width!r} is not a power of two")
        return cls._count_into_grid(data.astype(np.float64, copy=False), width)

    @classmethod
    def _count_into_grid(cls, data: np.ndarray, width: float) -> "MergeableHistogram":
        """Exact O(N) counting pass on the aligned grid of ``width``."""
        true_min = float(data.min())
        true_max = float(data.max())
        width, start, n_bins = fit_grid(true_min, true_max, width)
        # Lines 6-18, vectorized: element x lies in bin floor(x / width) - k
        # with k = start / width, and each step is exact: scaling by a power
        # of two (ldexp, subnormal widths included), the floor of an exact
        # value, and the difference of two whole numbers less than MAX_BINS
        # apart (Sterbenz's lemma past 2^53).
        q = np.ldexp(data, 1 - math.frexp(width)[1])
        np.floor(q, out=q)
        if width > 1.0 and start < 0.0:
            # The one rounding: a negative x nearer 0 than width * 2^-1075
            # scales to -0.0, whose floor is 0 where it should be -1.
            zero = np.flatnonzero(q == 0.0)
            q[zero[data[zero] < 0.0]] = -1.0
        q -= start / width
        counts = np.bincount(q.astype(np.int64), minlength=n_bins)
        return cls(
            bin_width=width,
            start=start,
            counts=counts,
            data_min=true_min,
            data_max=true_max,
        )

    def grid_holds(self, values: np.ndarray) -> bool:
        """Whether this grid, extended over ``values``, stays within
        :data:`MAX_BINS` bins: the condition for merging them at this
        width (a tiny width and a far value would otherwise ask for an
        astronomical count array)."""
        lo = min(self.start, float(values.min()))
        hi = max(self.start + self.n_bins * self.bin_width, float(values.max()))
        return (hi - lo) / self.bin_width < MAX_BINS

    # -------------------------------------------------------------- inspection
    @property
    def n_bins(self) -> int:
        return int(self.counts.size)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def boundaries(self) -> np.ndarray:
        """``n_bins + 1`` bin edges."""
        return self.start + np.arange(self.n_bins + 1, dtype=np.float64) * self.bin_width

    def bin_range(self, i: int) -> Tuple[float, float]:
        """Half-open value range ``[lo, hi)`` of bin ``i``."""
        return (self.start + i * self.bin_width, self.start + (i + 1) * self.bin_width)

    @property
    def nbytes(self) -> int:
        """Approximate serialized size (counts + edges + header) — what the
        metadata service pays to store/ship this histogram."""
        return self.counts.nbytes + (self.n_bins + 1) * 8 + 32

    # -------------------------------------------------------------- estimation
    def overlaps(self, interval: Interval) -> bool:
        """Region-elimination test using the true min/max (§III-D2:
        *"Histograms contain the minimum and maximum value ... which we can
        use to quickly determine whether the region has any element that
        satisfies the query condition."*)."""
        return interval.overlaps_range(self.data_min, self.data_max)

    @cached_property
    def _content(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each bin's actual value extent — its edges tightened to the true
        data min/max, so edge bins are narrower — and the prefix sum of the
        counts (``n_bins + 1`` entries).  Both extents are non-decreasing.
        Built on first use and kept: a histogram is never changed in place
        (every writer installs a new one)."""
        edges = self.boundaries
        return (
            np.maximum(edges[:-1], self.data_min),
            np.minimum(edges[1:], self.data_max),
            np.concatenate(([0], np.cumsum(self.counts))),
        )

    def __getstate__(self) -> dict:
        # The estimate arrays are derived; a serialized histogram (a metadata
        # checkpoint) does not carry them.
        state = dict(self.__dict__)
        state.pop("_content", None)
        return state

    def estimate_hits(self, interval: Interval) -> Tuple[int, int]:
        """Lower/upper bounds on the number of elements in ``interval``.

        Upper bound counts all bins fully **or partially** overlapping the
        condition; the lower bound counts only fully-overlapping bins
        (§III-D2).  Bin content ranges are tightened with the true data
        min/max so edge bins don't inflate the upper bound.

        Both extents ascend, so each bound test holds on a suffix (lower
        bound) or a prefix (upper bound) of the bins: the partial and full
        bins are two contiguous ranges, found by binary search — an open
        endpoint excludes a bin that only touches it — and counted off the
        prefix sum.
        """
        if not self.overlaps(interval):
            return (0, 0)
        content_lo, content_hi, cum = self._content
        first_partial = first_full = 0
        end_partial = end_full = self.n_bins
        if interval.lo is not None:
            side = "left" if interval.lo_closed else "right"
            first_partial = int(content_hi.searchsorted(interval.lo, side))
            first_full = int(content_lo.searchsorted(interval.lo, side))
        if interval.hi is not None:
            side = "right" if interval.hi_closed else "left"
            end_partial = int(content_lo.searchsorted(interval.hi, side))
            end_full = int(content_hi.searchsorted(interval.hi, side))
        first_full = max(first_full, first_partial)
        end_full = min(end_full, end_partial)
        upper = int(cum[end_partial] - cum[first_partial]) if end_partial > first_partial else 0
        lower = int(cum[end_full] - cum[first_full]) if end_full > first_full else 0
        return (lower, upper)

    def estimate_selectivity(self, interval: Interval) -> Tuple[float, float]:
        """(lower, upper) selectivity bounds as fractions of total count."""
        lower, upper = self.estimate_hits(interval)
        total = int(self._content[2][-1])
        if total == 0:
            return (0.0, 0.0)
        return (lower / total, upper / total)

    def quantile(self, q: float) -> float:
        """Deterministic quantile estimate from the bin counts.

        Locates the bin holding the ``q``-th cumulative count and
        interpolates linearly inside it, with the bin's value range
        tightened to the true data extrema so edge bins cannot push the
        estimate outside ``[data_min, data_max]``.  Exact at ``q = 0``
        and ``q = 1`` (the recorded extrema); in between the error is
        bounded by one bin width — the same resolution every other
        estimate this histogram serves has.
        """
        if not (0.0 <= q <= 1.0):
            raise QueryError(f"quantile {q!r} outside [0, 1]")
        total = self.total
        if total == 0:
            raise QueryError("quantile of an empty histogram")
        if q == 0.0:
            return self.data_min
        if q == 1.0:
            return self.data_max
        target = q * total
        cum = np.cumsum(self.counts)
        i = int(np.searchsorted(cum, target, side="left"))
        i = min(i, self.n_bins - 1)
        below = float(cum[i - 1]) if i > 0 else 0.0
        in_bin = float(self.counts[i])
        frac = 0.0 if in_bin == 0.0 else (target - below) / in_bin
        lo, hi = self.bin_range(i)
        lo = max(lo, self.data_min)
        hi = min(hi, self.data_max)
        return float(lo + frac * (hi - lo))

    # ----------------------------------------------------------------- merging
    def coarsened(self, new_width: float) -> "MergeableHistogram":
        """Re-bin onto a coarser aligned grid (``new_width`` must be a
        power-of-two multiple of ``bin_width``).  Exact: every fine bin maps
        wholly into one coarse bin because the grids nest."""
        if new_width == self.bin_width:
            return self
        # The class invariant requires power-of-two widths, so the ratio
        # must itself be a power of two (2, 4, 8, ...), taken from the
        # exponents: a subnormal grid's ratio to a coarse one can pass 2^1024.
        mantissa, exponent = math.frexp(new_width)
        shift = exponent - math.frexp(self.bin_width)[1]
        if mantissa != 0.5 or shift < 1:
            raise QueryError(
                f"cannot coarsen width {self.bin_width} to {new_width}: "
                "not a power-of-two multiple"
            )
        new_start = math.floor(self.start / new_width) * new_width
        # The fine grid starts ``offset_bins`` (< ratio) fine bins into the
        # first coarse bin, so the coarse bins are ascending runs of fine
        # ones: the first run ends at fine bin ``ratio - offset_bins`` and
        # every later run is ``ratio`` long.  Both can exceed int64 when
        # the widths differ by a huge power of two (e.g. 2^-56 vs 2^8), so
        # they stay Python ints, clamped to the fine bin count.  The offset
        # is computed in exact rationals: at extreme width ratios (e.g. a
        # subnormal-width grid coarsened onto a 2^-20 grid) the float
        # subtraction ``self.start - new_start`` absorbs the fine start
        # entirely and would shift every fine bin by the lost amount.
        ratio_i = 1 << shift
        offset_bins = _exact_offset(self.start, new_start, self.bin_width)
        n = self.n_bins
        heads = np.arange(min(ratio_i - offset_bins, n), n, min(ratio_i, n))
        return MergeableHistogram(
            bin_width=new_width,
            start=new_start,
            counts=np.add.reduceat(self.counts, np.concatenate(([0], heads))),
            data_min=self.data_min,
            data_max=self.data_max,
        )

    def merge(self, other: "MergeableHistogram") -> "MergeableHistogram":
        """Merge two mergeable histograms exactly (§IV merging procedure:
        coarsen to the larger width, then aggregate counts bin-by-bin)."""
        width = max(self.bin_width, other.bin_width)
        a, b = (h if h.bin_width == width else h.coarsened(width) for h in (self, other))
        start = min(a.start, b.start)
        n_bins = _bins_spanned(start, width, (a, b))
        counts = np.zeros(n_bins, dtype=np.int64)
        for h in (a, b):
            off = round((h.start - start) / width)
            counts[off : off + h.n_bins] += h.counts
        return MergeableHistogram(
            bin_width=width,
            start=start,
            counts=counts,
            data_min=min(self.data_min, other.data_min),
            data_max=max(self.data_max, other.data_max),
        )

    def subtract(
        self,
        other: "MergeableHistogram",
        data_min: float = None,
        data_max: float = None,
    ) -> "MergeableHistogram":
        """Exact multiset difference: remove ``other``'s counts from this
        histogram (the inverse of :meth:`merge` for a sub-multiset).

        ``other`` must be at the same or a finer power-of-two width — its
        grid then nests into this one exactly, so the subtraction is
        bin-for-bin exact.  Raises when any bin would go negative (i.e.
        ``other`` counts elements this histogram never held).

        The extrema of a difference cannot be derived from the operands
        (removing the minimum says nothing about the runner-up), so the
        caller supplies the true ``data_min``/``data_max`` of the
        remaining multiset; omitted, this histogram's extrema are kept —
        only sound when the caller proved neither extremum was removed.
        """
        width = self.bin_width
        if other.bin_width > width:
            raise QueryError(
                f"cannot subtract width {other.bin_width} from finer "
                f"width {width}"
            )
        o = other.coarsened(width) if other.bin_width < width else other
        off = round((o.start - self.start) / width)
        if off < 0 or off + o.n_bins > self.n_bins:
            raise QueryError(
                "subtrahend grid extends outside this histogram's grid"
            )
        counts = self.counts.copy()
        counts[off : off + o.n_bins] -= o.counts
        if (counts < 0).any():
            raise QueryError("subtract would drive a bin count negative")
        return MergeableHistogram(
            bin_width=width,
            start=self.start,
            counts=counts,
            data_min=self.data_min if data_min is None else float(data_min),
            data_max=self.data_max if data_max is None else float(data_max),
        )

    def equivalent(self, other: "MergeableHistogram") -> bool:
        """Whether two histograms describe the *same multiset* at the
        same extrema: coarsened onto their common (coarser) grid, the
        aligned counts must match bin-for-bin and the true min/max must
        be equal.  This is the exactness oracle for incrementally
        maintained histograms vs from-scratch rebuilds — grids may differ
        (sampling picks the width), the content may not.
        """
        if self.data_min != other.data_min or self.data_max != other.data_max:
            return False
        if self.total != other.total:
            return False
        width = max(self.bin_width, other.bin_width)
        a = self.coarsened(width)
        b = other.coarsened(width)
        start = min(a.start, b.start)
        n = _bins_spanned(start, width, (a, b))
        ca = np.zeros(n, dtype=np.int64)
        cb = np.zeros(n, dtype=np.int64)
        ca[round((a.start - start) / width) :][: a.n_bins] = a.counts
        cb[round((b.start - start) / width) :][: b.n_bins] = b.counts
        return bool(np.array_equal(ca, cb))

    @classmethod
    def merge_many(cls, histograms: Sequence["MergeableHistogram"]) -> "MergeableHistogram":
        """Merge a non-empty sequence in O(total bins): coarsen all to the
        max width, then add into one span-covering count array."""
        if not histograms:
            raise QueryError("merge_many needs at least one histogram")
        width = max(h.bin_width for h in histograms)
        return cls.merge_aligned([h.coarsened(width) for h in histograms])

    @classmethod
    def merge_aligned(cls, coarse: Sequence["MergeableHistogram"]) -> "MergeableHistogram":
        """The adding half of :meth:`merge_many`: histograms already on one
        width (coarsening keeps each one's extrema) into one
        span-covering count array, added in one ``np.add.at`` over the
        operands' stacked bin offsets."""
        width, start = coarse[0].bin_width, min([h.start for h in coarse])
        sizes = np.array([h.counts.size for h in coarse], dtype=np.int64)
        offsets = np.rint(
            (np.array([h.start for h in coarse]) - start) / width
        ).astype(np.int64)
        # Bin j of operand i lands at offsets[i] + j.
        first = np.cumsum(sizes) - sizes
        idx = np.arange(int(sizes.sum()), dtype=np.int64) + np.repeat(
            offsets - first, sizes
        )
        counts = np.zeros(_bins_spanned(start, width, coarse), dtype=np.int64)
        np.add.at(counts, idx, np.concatenate([h.counts for h in coarse]))
        return cls(
            bin_width=width, start=start, counts=counts,
            data_min=min([h.data_min for h in coarse]),
            data_max=max([h.data_max for h in coarse]),
        )


def _exact_offset(start: float, new_start: float, width: float) -> int:
    """``(start - new_start) / width`` in exact rationals: each float is
    the ratio of two integers.  Both starts lie on the grid of ``width``,
    so the quotient is an integer and ``//`` is exact."""
    (a, da), (b, db), (w, dw) = (
        x.as_integer_ratio() for x in (start, new_start, width)
    )
    return (a * db - b * da) * dw // (da * db * w)


def _bins_spanned(
    start: float, width: float, histograms: Sequence[MergeableHistogram]
) -> int:
    """Bins of ``width`` from ``start`` (on their common grid) to the end
    of the last of ``histograms``, counted in whole bins: an end computed
    as ``start + n * width`` rounds once a bin is narrower than an ulp of
    the values."""
    return max([round((h.start - start) / width) + h.counts.size for h in histograms])
