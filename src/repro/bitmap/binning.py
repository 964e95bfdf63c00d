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

    abs_hi = max(abs(vmin), abs(vmax))
    if abs_hi == 0.0:
        return np.array([-1.0, 0.0, 1.0])
    hi_decade = int(math.floor(math.log10(abs_hi)))
    # Cover ~8 decades below the top; anything smaller collapses to the
    # zero edge, which is plenty for float32 scientific data.
    lo_decade = window_floor = hi_decade - 7
    # A range on one side of zero keeps only the decades from one below its
    # magnitude nearest zero (one below, should log10 round across a decade
    # edge): the edge bracketing that end is there, and 0 and the other
    # side are not needed.
    near = vmin if vmin >= 0 else -vmax
    if near > 0:
        lo_decade = max(lo_decade, int(math.floor(math.log10(near))) - 1)
    grid = np.concatenate(
        [_decade_edges(precision, d) for d in range(lo_decade, hi_decade + 1)]
    )
    above = grid[grid > abs_hi]
    # The first grid point strictly above the top closes the top bin; when
    # the top sits in its decade's last bin, the next decade's first point.
    closer = above[:1] if above.size else _decade_edges(precision, hi_decade + 1)[:1]
    pos = np.concatenate([grid[grid <= abs_hi], closer])
    edges = np.concatenate([
        -pos[::-1] if vmin < 0 else [],
        [0.0] if lo_decade == window_floor else [],
        pos if vmax >= 0 else [],
    ])

    lo_idx = int(np.searchsorted(edges, vmin, side="right") - 1)
    hi_idx = int(np.searchsorted(edges, vmax, side="right"))
    lo_idx = max(0, lo_idx)
    hi_idx = min(edges.size - 1, hi_idx)
    # A copy: a view would keep the whole grid alive in every region's index.
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
