"""Read aggregation: merge small nearby reads into larger contiguous ones.

§III-E: *"PDC ... uses aggregation methods to merge small reads into bigger
ones to reduce the data access contention."*  Range-query results are
scattered, so naive retrieval issues many small reads; merging extents whose
gap is below a threshold trades a little extra data for far fewer accesses —
a large win when per-access latency dominates.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["aggregate_extents", "coords_to_extents"]

Extent = Tuple[int, int]


def aggregate_extents(extents: Sequence[Extent], gap_threshold: int = 0) -> List[Extent]:
    """Merge overlapping/nearby half-open extents.

    Two extents are merged when the gap between them is ``<= gap_threshold``
    elements.  Input order is irrelevant; output is sorted and disjoint.

    >>> aggregate_extents([(0, 4), (4, 8), (20, 24)], gap_threshold=0)
    [(0, 8), (20, 24)]
    >>> aggregate_extents([(0, 4), (6, 8)], gap_threshold=2)
    [(0, 8)]
    """
    if gap_threshold < 0:
        raise ValueError("gap_threshold must be >= 0")
    cleaned = [(int(a), int(b)) for a, b in extents if b > a]
    if not cleaned:
        return []
    cleaned.sort()
    merged: List[Extent] = [cleaned[0]]
    for start, stop in cleaned[1:]:
        last_start, last_stop = merged[-1]
        if start - last_stop <= gap_threshold:
            if stop > last_stop:
                merged[-1] = (last_start, stop)
        else:
            merged.append((start, stop))
    return merged


def coords_to_extents(coords: np.ndarray, gap_threshold: int = 0) -> List[Extent]:
    """Turn sorted element coordinates into merged read extents.

    ``coords`` is a 1-D integer array of element indices (need not be
    sorted).  Runs of consecutive indices become one extent; extents are then
    merged under ``gap_threshold`` like :func:`aggregate_extents`.
    """
    if coords.size == 0:
        return []
    c = np.sort(np.asarray(coords, dtype=np.int64))
    # Break points where the next index is not consecutive.
    breaks = np.flatnonzero(np.diff(c) > 1)
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks, [c.size - 1]))
    runs = [(int(c[i]), int(c[j]) + 1) for i, j in zip(starts, stops)]
    if gap_threshold > 0:
        return aggregate_extents(runs, gap_threshold)
    return runs
