"""An object's histograms: every region's in one table, and their merge.

§III-D2: *"further performance improvement can be achieved if we can merge
the local histograms of different regions and obtain a 'global' histogram of
an entire object. As the metadata is cached in all servers after the
metadata distribution, such a global histogram can be used multiple times
with very low access latency when serving a series of queries."*

:class:`HistogramTable` keeps each region's Algorithm-1 histogram as one row
of columns and a slice of one ``counts`` array, built over any set of
regions in array passes; :class:`GlobalHistogram` wraps their merge with the
planner-facing estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from ..interval import Interval
from .mergeable import MAX_BINS, SAMPLE_FRACTION, MergeableHistogram, _exact_offset, fit_grid

__all__ = ["GlobalHistogram", "HistogramTable"]

#: Elements one build pass covers, in whole regions: its temporaries (some
#: 40 bytes an element) stay a few MB at any object size.
_PASS_ELEMENTS = 1 << 16
#: Fine bins one merge pass adds, in whole regions.
_PASS_BINS = 1 << 18
#: Coarsening shifts are capped here: a coarse bin of more fine bins than
#: any region has holds all of them that fall into it either way.
_SHIFT_CAP = 31


@dataclass
class GlobalHistogram:
    """Merged histogram of an entire object.

    Region elimination does not go through it: the region extrema live in
    ``StoredObject.rmin``/``rmax`` and ``planner.surviving_regions`` is the
    one place they meet an interval.
    """

    merged: MergeableHistogram

    # ------------------------------------------------------------ planner api
    def estimate_selectivity(self, interval: Interval) -> Tuple[float, float]:
        """(lower, upper) selectivity bounds over the whole object."""
        return self.merged.estimate_selectivity(interval)

    def estimate_hits(self, interval: Interval) -> Tuple[int, int]:
        return self.merged.estimate_hits(interval)


@dataclass
class HistogramTable:
    """Every region's Algorithm-1 histogram of one object, one row each:
    region ``r``'s bins have width ``2**exponent[r]`` from ``start[r]``,
    and its ``n_bins[r]`` counts are ``counts[offset[r]:][:n_bins[r]]``.
    :meth:`view` is one row as a :class:`MergeableHistogram`.  Slices are
    rewritten in place; ``counts`` grows only when a region gains bins."""

    start: np.ndarray
    exponent: np.ndarray
    n_bins: np.ndarray
    offset: np.ndarray
    #: The true extrema of each region's values — ``StoredObject.rmin`` /
    #: ``rmax``, what region elimination reads.
    data_min: np.ndarray
    data_max: np.ndarray
    counts: np.ndarray
    #: Elements overwritten since each region's histogram was last built
    #: from scratch (drift gauge for the delta-merge path).
    dirty: np.ndarray
    #: The merge of every row (:meth:`merge`), kept by :meth:`put`.
    global_histogram: Optional[GlobalHistogram] = field(default=None, init=False)
    #: Each row's first edge and bin count on the merged grid
    #: (:func:`_onto`), kept with it: where the merged grid starts and ends.
    coarse: Optional[np.ndarray] = field(default=None, init=False)
    coarse_bins: Optional[np.ndarray] = field(default=None, init=False)

    @property
    def n_regions(self) -> int:
        return int(self.start.size)

    # ------------------------------------------------------------ construction
    @classmethod
    def build(
        cls, values: np.ndarray, counts: np.ndarray, seeds: np.ndarray, n_bins: int
    ) -> "HistogramTable":
        """Algorithm 1 over regions given back to back (``counts[i]`` values
        each), region ``i`` sampling with ``default_rng(seeds[i])``: each row
        equals ``MergeableHistogram.from_data(region, n_bins, seed=seeds[i])``.
        Runs in passes of whole regions: every grid first, then the counts
        into one array."""
        ends = np.cumsum(counts)
        cuts = [0, *(np.flatnonzero(np.diff((ends - 1) // _PASS_ELEMENTS)) + 1).tolist(), ends.size]
        at = [0, *ends.tolist()]
        passes = [(values[at[a] : at[b]], counts[a:b]) for a, b in zip(cuts, cuts[1:])]
        grids = [_grid_pass(v, c, seeds[a:b], n_bins)
                 for (v, c), a, b in zip(passes, cuts, cuts[1:])]
        start, exponent, bins, data_min, data_max = (
            np.concatenate([g[i] for g in grids]) for i in range(5))
        offset = np.cumsum(bins) - bins
        fine, done = np.empty(int(bins.sum()), dtype=np.int32), 0
        for (v, c), (s, e, b, _, _) in zip(passes, grids):
            fine[done : done + int(b.sum())] = _count_pass(v, c, s, e, b)
            done += int(b.sum())
        return cls(start, exponent, bins, offset, data_min, data_max,
                   fine, np.zeros(bins.size, dtype=np.int64))

    @classmethod
    def of(cls, histograms: Sequence[MergeableHistogram], dirty: Sequence[int]) -> "HistogramTable":
        """The rows of ``histograms`` with their ``dirty`` counts."""
        bins = np.array([h.n_bins for h in histograms], dtype=np.int64)
        return cls(
            np.array([h.start for h in histograms]),
            np.array([math.frexp(h.bin_width)[1] - 1 for h in histograms], dtype=np.int32),
            bins, np.cumsum(bins) - bins,
            np.array([h.data_min for h in histograms]),
            np.array([h.data_max for h in histograms]),
            np.concatenate([h.counts for h in histograms]).astype(np.int32),
            np.array(dirty, dtype=np.int64),
        )

    def view(self, rid: int) -> MergeableHistogram:
        """Region ``rid``'s histogram (its counts a copy)."""
        at = int(self.offset[rid])
        return MergeableHistogram(
            bin_width=math.ldexp(1.0, int(self.exponent[rid])),
            start=float(self.start[rid]),
            counts=self.counts[at : at + int(self.n_bins[rid])],
            data_min=float(self.data_min[rid]),
            data_max=float(self.data_max[rid]),
        )

    # ----------------------------------------------------------------- merging
    def merge(self) -> None:
        """The global histogram from scratch, equal field for field to
        ``merge_many`` of every row: each fine bin is added into its coarse
        bin, one ``bincount`` a pass of whole regions."""
        exponent = int(self.exponent.max())
        self.coarse, self.coarse_bins, head, shift = _onto(
            exponent, self.start, self.exponent, self.n_bins)
        origin, place, size = self._span(exponent)
        counts = np.zeros(size, dtype=np.int64)
        ends = np.cumsum(self.n_bins)
        cuts = np.flatnonzero(np.diff((ends - 1) // _PASS_BINS)) + 1
        for rows in np.split(np.arange(self.n_regions), cuts):
            bins = self.n_bins[rows]
            keys = _coarse_keys(bins, head[rows], shift[rows], place[rows])
            fine = self.counts[_slices(self.offset[rows], bins)]
            counts += np.bincount(keys, fine, size).astype(np.int64)
        self._set_global(exponent, origin, counts)

    def put(self, region_ids: Sequence[int], part: "HistogramTable") -> None:
        """Make ``part``'s rows the histograms of ``region_ids`` (rows past
        the end join the table: regions an append opened).  At an unchanged
        merged width the global counts lose the regions' old rows and gain
        the new ones, and only those rows are placed on the merged grid, so
        the work follows the write; a changed width merges again from
        scratch."""
        rids = np.asarray(region_ids, dtype=np.int64)
        grow = int(rids.max()) + 1 - self.n_regions
        if grow > 0:  # regions an append opened: empty rows until filled below
            for name in _COLUMNS:
                column = getattr(self, name)
                setattr(self, name, np.concatenate([column, np.zeros(grow, column.dtype)]))
        merged = self.global_histogram.merged
        exponent = math.frexp(merged.bin_width)[1] - 1
        # The regions' old rows and their new ones, back to back, placed on
        # the merged grid in one pass; the old rows' counts enter negated.
        old_bins = self.n_bins[rids]
        bins = np.concatenate([old_bins, part.n_bins])
        coarse, coarse_bins, head, shift = _onto(
            exponent, np.concatenate([self.start[rids], part.start]),
            np.concatenate([self.exponent[rids], part.exponent]), bins)
        fine = np.concatenate(
            [self.counts[_slices(self.offset[rids], old_bins)], part.counts]).astype(np.float64)
        fine[: int(old_bins.sum())] *= -1.0
        # A slice that no longer fits moves to the end of ``counts``.
        at, moved = self.offset[rids], part.n_bins > old_bins
        need = part.n_bins[moved]
        at[moved] = self.counts.size + np.cumsum(need) - need
        new = dict(offset=at, coarse=coarse[rids.size :], coarse_bins=coarse_bins[rids.size :])
        for name in _COLUMNS:
            getattr(self, name)[rids] = new[name] if name in new else getattr(part, name)
        if need.size:
            self.counts = np.concatenate([self.counts, np.zeros(int(need.sum()), np.int32)])
        self.counts[_slices(at, part.n_bins)] = part.counts
        if self.counts.size > 2 * int(self.n_bins.sum()):
            live = _slices(self.offset, self.n_bins)
            self.counts, self.offset = self.counts[live], np.cumsum(self.n_bins) - self.n_bins
        if int(self.exponent.max()) != exponent:
            self.merge()
            return
        # Work on the union of the old and new spans, then cut the new one
        # out: a row that set the old span may be one just replaced.
        start, place, n = self._span(exponent)
        lo = min(start, merged.start)
        was, now = (round((s - lo) / merged.bin_width) for s in (merged.start, start))
        counts = np.zeros(max(was + merged.n_bins, now + n), dtype=np.int64)
        counts[was : was + merged.n_bins] = merged.counts
        keys = _coarse_keys(bins, head, shift, np.concatenate([
            np.rint((coarse[: rids.size] - merged.start) / merged.bin_width).astype(np.int64) + was,
            place[rids] + now]))
        counts += np.bincount(keys, fine, counts.size).astype(np.int64)
        self._set_global(exponent, start, counts[now : now + n])

    def _set_global(self, exponent: int, start: float, counts: np.ndarray) -> None:
        # ``argmin`` / ``argmax`` take the first extremum, as ``min`` /
        # ``max`` of the histograms do (-0.0 and 0.0 tie).
        self.global_histogram = GlobalHistogram(MergeableHistogram(
            bin_width=math.ldexp(1.0, exponent), start=start, counts=counts,
            data_min=float(self.data_min[np.argmin(self.data_min)]),
            data_max=float(self.data_max[np.argmax(self.data_max)]),
        ))

    def _span(self, exponent: int) -> Tuple[float, np.ndarray, int]:
        """The merged grid's start (the least coarse edge), each row's first
        coarse bin on it and the grid's bin count."""
        origin = float(self.coarse.min())
        place = np.rint((self.coarse - origin) / math.ldexp(1.0, exponent)).astype(np.int64)
        return origin, place, int((place + self.coarse_bins).max())


#: A row's columns, each indexed by region id.
_COLUMNS = ("start", "exponent", "n_bins", "offset", "data_min", "data_max", "dirty",
            "coarse", "coarse_bins")


def _slices(offset: np.ndarray, n_bins: np.ndarray) -> np.ndarray:
    """Positions in ``counts`` of the rows' slices, back to back."""
    return np.arange(int(n_bins.sum())) + np.repeat(offset - (np.cumsum(n_bins) - n_bins), n_bins)


def _onto(exponent: int, start: np.ndarray, fine: np.ndarray, bins: np.ndarray):
    """Rows of grids ``start`` / ``2**fine`` / ``bins`` coarsened onto the
    aligned grid of width ``2**exponent`` as
    :meth:`MergeableHistogram.coarsened` coarsens one: each row's first
    coarse edge, its coarse bin count, its fine bins in its first coarse
    bin and ``log2`` of the fine bins per coarse bin (capped)."""
    width = math.ldexp(1.0, exponent)
    # ``+ 0.0``: ``math.floor`` turns a -0.0 quotient into 0.
    coarse = np.floor(start / width) * width + 0.0
    shift = exponent - fine.astype(np.int64)
    # The fine bins before the first coarse edge: the starts' difference
    # is a multiple of the fine width under 2**shift of them, exact in a
    # double up to shift 52; past it, in rationals.
    with np.errstate(over="ignore"):
        skip = np.minimum((start - coarse) / np.ldexp(1.0, fine), 2.0 ** 62)
    head = np.minimum((1 << np.minimum(shift, 62)) - skip.astype(np.int64), bins)
    for i in np.flatnonzero(shift > 52).tolist():
        head[i] = min((1 << int(shift[i])) - _exact_offset(
            float(start[i]), float(coarse[i]), math.ldexp(1.0, int(fine[i]))), int(bins[i]))
    shift = np.minimum(shift, _SHIFT_CAP)
    return coarse, ((bins - 1 + (1 << shift) - head) >> shift) + 1, head, shift


def _coarse_keys(bins: np.ndarray, head: np.ndarray, shift: np.ndarray,
                 place: np.ndarray) -> np.ndarray:
    """Every fine bin of rows back to back (placed by :func:`_onto`, each
    one's first coarse bin at ``place``): its coarse bin."""
    first = np.cumsum(bins) - bins
    fine = np.arange(int(bins.sum()), dtype=np.int64)
    return ((fine + np.repeat((1 << shift) - head - first, bins)) >> np.repeat(shift, bins)
            ) + np.repeat(place, bins)


def _grid_pass(values: np.ndarray, counts: np.ndarray, seeds: np.ndarray, n_bins: int):
    """Algorithm 1's lines 1-5 over regions back to back in one array
    pass, each step as :meth:`MergeableHistogram.from_data` takes it for
    one region: ``(start, exponent, n_bins, data_min, data_max)``.  The
    extrema and the sample are read in the values' own dtype: its float64
    image is monotone, so theirs are the image's."""
    first = np.cumsum(counts) - counts
    data_min = np.minimum.reduceat(values, first).astype(np.float64)
    data_max = np.maximum.reduceat(values, first).astype(np.float64)
    # Line 1: each region's ~10 % sample, drawn by its own generator.
    n_sample = np.maximum(1, (counts * SAMPLE_FRACTION).astype(np.int64))
    drawn = np.flatnonzero(n_sample < counts)
    approx_min, approx_max = data_min.copy(), data_max.copy()
    if drawn.size:
        k = n_sample[drawn]
        picks = np.concatenate([
            np.random.default_rng(seed).integers(0, n, size=size)
            for seed, n, size in zip(seeds[drawn].tolist(), counts[drawn].tolist(), k.tolist())
        ])
        sample = values[picks + np.repeat(first[drawn], k)]
        approx_min[drawn] = np.minimum.reduceat(sample, np.cumsum(k) - k).astype(np.float64)
        approx_max[drawn] = np.maximum.reduceat(sample, np.cumsum(k) - k).astype(np.float64)
    # Lines 2-3: the width, a power of two (a constant sample's is tiny;
    # a span that underflows over n_bins takes the finest, 2^-1074).
    span = approx_max - approx_min
    raw = np.where(span > 0.0, span / n_bins, np.maximum(np.abs(approx_min), 1.0) * 2.0 ** -20)
    exponent = np.frexp(np.maximum(raw, math.ulp(0.0)))[1] - 1
    # Lines 4-5: the aligned grid; a grid past MAX_BINS bins (or past a
    # double) is fitted one region at a time.
    width = np.ldexp(1.0, exponent)
    with np.errstate(over="ignore", invalid="ignore"):
        start = np.floor(data_min / width) * width + 0.0
        bins = np.floor((data_max - start) / width) + 1.0
    for r in np.flatnonzero(~(np.isfinite(start) & (bins <= MAX_BINS))).tolist():
        w, start[r], bins[r] = fit_grid(float(data_min[r]), float(data_max[r]), float(width[r]))
        width[r], exponent[r] = w, math.frexp(w)[1] - 1
    return start, exponent.astype(np.int32), bins.astype(np.int64), data_min, data_max


def _count_pass(values: np.ndarray, counts: np.ndarray, start: np.ndarray,
                exponent: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Algorithm 1's lines 6-18 over regions back to back on their grids:
    element x lies in bin floor(x / width) - start / width
    (``MergeableHistogram._count_into_grid``), with every region's column
    broadcast down a row when the regions are one size."""
    vals = values.astype(np.float64, copy=False)
    width = np.ldexp(1.0, exponent)
    if counts.min() == counts.max():
        shape, spread = (counts.size, int(counts[0])), (lambda col: col[:, None])
    else:
        shape, spread = (vals.size,), (lambda col: np.repeat(col, counts))
    q = np.ldexp(vals.reshape(shape), spread(-exponent))
    np.floor(q, out=q)
    if ((exponent > 0) & (start < 0.0)).any():
        # The one rounding, possible only where width > 1 and start < 0: a
        # negative x that scales to -0.0 belongs in bin -1.
        flat = q.reshape(-1)
        zero = np.flatnonzero(flat == 0.0)
        flat[zero[vals[zero] < 0.0]] = -1.0
    q -= spread(start / width)
    keys = q.astype(np.int64)
    keys += spread(np.cumsum(bins) - bins)
    return np.bincount(keys.reshape(-1), minlength=int(bins.sum()))
