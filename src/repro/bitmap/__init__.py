"""Bitmap-index subsystem: WAH compression, FastBit-style precision
binning, and per-region bitmap indexes (§III-D4)."""

from .binning import assign_bins, sig_digit_edges
from .index import BitmapQueryResult, RegionBitmapIndex
from .wah import (
    GROUP_BITS,
    compress,
    compressed_nbytes,
    count_set_bits,
    decompress,
)

__all__ = [
    "assign_bins",
    "sig_digit_edges",
    "BitmapQueryResult",
    "RegionBitmapIndex",
    "GROUP_BITS",
    "compress",
    "compressed_nbytes",
    "count_set_bits",
    "decompress",
]
