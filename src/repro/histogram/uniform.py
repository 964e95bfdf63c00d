"""Classical equal-width and equal-height histograms.

§III-D2 names the two common binning methods; neither is mergeable across
regions without pre-agreed boundaries (the problem Algorithm 1 solves), so
these serve as the *ablation baseline*: same estimation API, but ``merge``
raises unless the boundaries happen to match exactly — demonstrating why the
paper needed the power-of-two scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import QueryError
from ..interval import Interval

__all__ = ["EqualWidthHistogram", "EqualHeightHistogram"]


@dataclass
class _BoundaryHistogram:
    """Shared machinery: explicit boundary array + counts."""

    boundaries: np.ndarray  # n_bins + 1 edges, ascending
    counts: np.ndarray      # n_bins
    data_min: float
    data_max: float

    def __post_init__(self) -> None:
        self.boundaries = np.asarray(self.boundaries, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.boundaries.size != self.counts.size + 1:
            raise QueryError("boundaries must have n_bins + 1 entries")
        if np.any(np.diff(self.boundaries) < 0):
            raise QueryError("boundaries must be non-decreasing")

    @property
    def n_bins(self) -> int:
        return int(self.counts.size)

    def overlaps(self, interval: Interval) -> bool:
        return interval.overlaps_range(self.data_min, self.data_max)

    def estimate_hits(self, interval: Interval) -> Tuple[int, int]:
        """Same lower/upper bin-overlap bounds as the mergeable histogram."""
        if not self.overlaps(interval):
            return (0, 0)
        lo_edges = self.boundaries[:-1]
        hi_edges = self.boundaries[1:]
        content_lo = np.maximum(lo_edges, self.data_min)
        content_hi = np.minimum(hi_edges, self.data_max)
        q_lo, q_hi = interval.finite_bounds()

        partial = np.ones(self.n_bins, dtype=bool)
        if interval.lo is not None:
            partial &= (content_hi >= q_lo) if interval.lo_closed else (content_hi > q_lo)
        if interval.hi is not None:
            partial &= (content_lo <= q_hi) if interval.hi_closed else (content_lo < q_hi)

        full = partial.copy()
        if interval.lo is not None:
            full &= (content_lo > q_lo) | ((content_lo == q_lo) & interval.lo_closed)
        if interval.hi is not None:
            full &= (content_hi < q_hi) | ((content_hi == q_hi) & interval.hi_closed)

        return (int(self.counts[full].sum()), int(self.counts[partial].sum()))

    def merge(self, other: "_BoundaryHistogram") -> "_BoundaryHistogram":
        """Merging requires *identical* boundaries — the limitation that
        motivates Algorithm 1 (§IV: pre-determined boundaries are
        impractical without a costly global scan)."""
        if self.boundaries.shape != other.boundaries.shape or not np.array_equal(
            self.boundaries, other.boundaries
        ):
            raise QueryError(
                "cannot merge histograms with different bin boundaries; "
                "use MergeableHistogram (Algorithm 1) for merge support"
            )
        return type(self)(
            boundaries=self.boundaries.copy(),
            counts=self.counts + other.counts,
            data_min=min(self.data_min, other.data_min),
            data_max=max(self.data_max, other.data_max),
        )


class EqualWidthHistogram(_BoundaryHistogram):
    """Fixed number of equal-width bins spanning [min, max]."""

    @classmethod
    def from_data(cls, data: np.ndarray, n_bins: int = 64) -> "EqualWidthHistogram":
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 1 or data.size == 0:
            raise QueryError("histogram needs non-empty 1-D data")
        lo, hi = float(data.min()), float(data.max())
        if lo == hi:
            hi = lo + 1.0
        counts, edges = np.histogram(data, bins=n_bins, range=(lo, hi))
        return cls(boundaries=edges, counts=counts, data_min=lo, data_max=float(data.max()))


class EqualHeightHistogram(_BoundaryHistogram):
    """Quantile (equal-height) bins: ~same count per bin."""

    @classmethod
    def from_data(cls, data: np.ndarray, n_bins: int = 64) -> "EqualHeightHistogram":
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 1 or data.size == 0:
            raise QueryError("histogram needs non-empty 1-D data")
        qs = np.linspace(0.0, 1.0, n_bins + 1)
        edges = np.quantile(data, qs)
        # Collapse duplicate quantiles (heavy ties) while keeping edges valid.
        edges = np.maximum.accumulate(edges)
        counts, _ = np.histogram(data, bins=edges)
        return cls(
            boundaries=edges,
            counts=counts,
            data_min=float(data.min()),
            data_max=float(data.max()),
        )
