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

import functools
import math
from typing import Optional

import numpy as np

from ..errors import IndexError_

__all__ = ["sig_digit_edges", "assign_bins"]


def _decade_edges(precision: int, decade: int, count: Optional[int] = None) -> np.ndarray:
    """Positive grid points with ``precision`` significant digits in
    ``[10^decade, 10^(decade+1))`` — e.g. precision 2, decade 0:
    1.0, 1.1, ..., 9.9 — or only the first ``count`` of them."""
    mantissas = np.arange(10 ** (precision - 1), 10 ** precision)[:count]
    return mantissas * (10.0 ** (decade - precision + 1))


@functools.lru_cache(maxsize=1024)
def _signed_grid(
    precision: int, lo_decade: int, hi_decade: int, negative: bool, zero: bool,
    positive: bool,
) -> np.ndarray:
    """Every edge a range spanning these decades cuts its edges from: the
    grid points of decades ``lo_decade``..``hi_decade`` and the next
    decade's first — the top bin's closer when the top sits in its
    decade's last bin — mirrored for ``negative``, with 0 for ``zero``.
    Read-only: callers are handed slices of it."""
    pos = np.concatenate(
        [_decade_edges(precision, d) for d in range(lo_decade, hi_decade + 1)]
        + [_decade_edges(precision, hi_decade + 1, 1)]
    )
    grid = np.concatenate([
        -pos[::-1] if negative else [], [0.0] if zero else [], pos if positive else [],
    ])
    grid.flags.writeable = False
    return grid


def sig_digit_edges(vmin: float, vmax: float, precision: int = 2) -> np.ndarray:
    """Ascending bin edges covering ``[vmin, vmax]`` on the grid of numbers
    with ``precision`` significant decimal digits (mirrored for negatives,
    with 0 on the grid).

    The outermost edges are extended one grid step beyond the data so every
    value falls in a proper bin.  The edges are a read-only slice of a
    cached grid.
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
    edges = _signed_grid(
        precision, lo_decade, hi_decade, vmin < 0, lo_decade == window_floor, vmax >= 0
    )
    lo_idx = int(np.searchsorted(edges, vmin, side="right") - 1)
    hi_idx = int(np.searchsorted(edges, vmax, side="right"))
    lo_idx = max(0, lo_idx)
    hi_idx = min(edges.size - 1, hi_idx)
    out = edges[lo_idx : hi_idx + 1]
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
