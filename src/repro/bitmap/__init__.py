"""Bitmap-index subsystem: WAH compression (:mod:`.wah`), FastBit-style
precision binning (:mod:`.binning`), and per-object bitmap indexes of
per-region bitmaps (§III-D4)."""

from .index import ObjectIndex, RegionBitmapIndex

__all__ = ["ObjectIndex", "RegionBitmapIndex"]
