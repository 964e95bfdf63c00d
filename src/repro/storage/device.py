"""Names of the memory/storage hierarchy layers.

Regions of PDC objects are placed on a layer (§II: *"a region ... can
reside on any layer of the memory/storage hierarchy"*); the layer's
bandwidth/latency pair in :class:`~repro.storage.costmodel.CostParameters`
feeds the cost model when a region is read.
"""

from __future__ import annotations

__all__ = ["DeviceKind"]


class DeviceKind:
    """String constants naming the hierarchy layers from §II of the paper."""

    MEMORY = "memory"
    NVRAM = "nvram"
    DISK = "disk"
    TAPE = "tape"

    ORDER = (MEMORY, NVRAM, DISK, TAPE)
