"""Comparison baseline: the hand-optimized parallel HDF5 full scan
(HDF5-F).  The related-work block index [26] is no separate engine: it is
``QueryEngine(system, enable_ordering=False)`` running PDC-H."""

from .hdf5_fullscan import BaselineResult, HDF5FullScanEngine

__all__ = ["BaselineResult", "HDF5FullScanEngine"]
