"""Simulated storage substrate: parallel file system, read aggregation,
region cache, and the simulated-time cost model.

This package replaces the paper's Cori/Lustre testbed with a deterministic
simulator — see DESIGN.md §2 for the substitution argument.
"""

from .aggregator import aggregate_extents, coords_to_extents
from .cache import CacheStats, RegionCache
from .costmodel import CORI_LIKE, CostModel, CostParameters, SimClock
from .file import ParallelFileSystem, SimFile

__all__ = [
    "aggregate_extents",
    "coords_to_extents",
    "CacheStats",
    "RegionCache",
    "CORI_LIKE",
    "CostModel",
    "CostParameters",
    "SimClock",
    "ParallelFileSystem",
    "SimFile",
]
