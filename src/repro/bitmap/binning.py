"""FastBit-style precision binning.

§III-D4: *"the data split into a number of bins by Fastbit automatically.
One representative key is selected in each bin"* with ``precision = 2`` as
the default.  FastBit's precision binning places bin boundaries on the grid
of numbers with ``precision`` significant decimal digits; any query whose
endpoints have at most that many significant digits aligns exactly with bin
boundaries, so no candidate (raw-data) check is needed — which is why the
paper calls precision 2 *"sufficient for the queries evaluated"*.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import IndexError_

__all__ = ["sig_digit_edges", "assign_bins"]


def _decade_edges(precision: int, decade: int) -> np.ndarray:
    """Positive grid points with ``precision`` significant digits in
    ``[10^decade, 10^(decade+1))`` — e.g. precision 2, decade 0:
    1.0, 1.1, ..., 9.9."""
    mantissas = np.arange(10 ** (precision - 1), 10 ** precision)
    return mantissas * (10.0 ** (decade - precision + 1))


def sig_digit_edges(vmin: float, vmax: float, precision: int = 2) -> np.ndarray:
    """Ascending bin edges covering ``[vmin, vmax]`` on the grid of numbers
    with ``precision`` significant decimal digits (mirrored for negatives,
    with 0 on the grid).

    The outermost edges are extended one grid step beyond the data so every
    value falls in a proper bin.
    """
    if precision < 1 or precision > 6:
        raise IndexError_(f"precision must be in [1, 6], got {precision}")
    if not (math.isfinite(vmin) and math.isfinite(vmax)) or vmin > vmax:
        raise IndexError_(f"bad value range [{vmin}, {vmax}]")

    def positive_grid(limit: float) -> np.ndarray:
        """Grid points in (0, next-grid-point-above(limit)]."""
        if limit <= 0:
            return np.zeros(0)
        hi_decade = int(math.floor(math.log10(limit)))
        # Cover ~8 decades below the top; anything smaller collapses to the
        # zero edge, which is plenty for float32 scientific data.
        decades = range(hi_decade - 7, hi_decade + 1)
        grid = np.concatenate([_decade_edges(precision, d) for d in decades])
        above = grid[grid > limit]
        if above.size:
            # First grid point strictly above the limit closes the top bin.
            return np.concatenate([grid[grid <= limit], above[:1]])
        # limit sits in the top decade's last bin: close with the next
        # decade's first point.
        return np.concatenate([grid, _decade_edges(precision, hi_decade + 1)[:1]])

    abs_hi = max(abs(vmin), abs(vmax))
    if abs_hi == 0.0:
        return np.array([-1.0, 0.0, 1.0])
    pos = positive_grid(abs_hi)
    edges = np.concatenate([-pos[::-1], [0.0], pos])

    lo_idx = int(np.searchsorted(edges, vmin, side="right") - 1)
    hi_idx = int(np.searchsorted(edges, vmax, side="right"))
    lo_idx = max(0, lo_idx)
    hi_idx = min(edges.size - 1, hi_idx)
    # A copy: a view would keep the whole mirrored grid (≈ 1.4 k edges at
    # precision 2) alive in every region's index.
    out = edges[lo_idx : hi_idx + 1].copy()
    if out.size < 2:
        out = np.array([vmin, math.nextafter(vmax, math.inf)])
    return out


def assign_bins(data: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin index of each element: bin ``i`` covers ``[edges[i], edges[i+1])``.

    Values outside the edge span raise — edges must be built from this
    data's min/max.
    """
    idx = np.searchsorted(edges, data, side="right") - 1
    if idx.size and (idx.min() < 0 or idx.max() >= edges.size - 1):
        raise IndexError_("data outside bin-edge span")
    return idx.astype(np.int64)
