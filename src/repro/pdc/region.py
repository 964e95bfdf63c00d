"""Regions: the basic data-management unit of PDC (§III-B).

Large objects are decomposed into fixed-size regions so data operations
parallelize and subsets can be read without touching the whole object.
Each region's metadata — its mergeable histogram — is a row of its object's
:class:`~repro.histogram.global_hist.HistogramTable`.
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import PDCError

__all__ = ["partition", "region_key"]


def partition(n_elements: int, region_elements: int) -> List[Tuple[int, int]]:
    """Split ``n_elements`` into ``(offset, count)`` chunks of at most
    ``region_elements`` each; the final chunk may be short."""
    if n_elements <= 0:
        raise PDCError("cannot partition an empty object")
    if region_elements <= 0:
        raise PDCError("region size must be positive")
    out = []
    off = 0
    while off < n_elements:
        count = min(region_elements, n_elements - off)
        out.append((off, count))
        off += count
    return out


def region_key(object_name: str, region_id: int, replica: str = "orig") -> str:
    """Cache/storage key of one region payload."""
    return f"{object_name}:{replica}:r{region_id}"
