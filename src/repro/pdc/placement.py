"""Failover re-assignment of a crashed server's region share.

§III-C: *"Upon the receipt of a query request, different regions of the
queried object are assigned to the servers in a load-balanced fashion."*
Ordinary work is routed by :meth:`PDCSystem.region_owner_positions`
(``serving[rid % len(serving)]``); this module only re-spreads the share
of a server that died mid-query.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import PDCError

__all__ = ["assign_region_ids"]


def assign_region_ids(region_ids: np.ndarray, n_targets: int) -> List[np.ndarray]:
    """Split bare region ids round-robin across ``n_targets`` survivors:
    the ``i``-th id goes to target ``i mod n_targets``.  Ids within each
    share keep ascending order (deterministic)."""
    if n_targets < 1:
        raise PDCError("need at least one target server")
    ids = np.asarray(region_ids, dtype=np.int64)
    return [np.sort(ids[s::n_targets]) for s in range(n_targets)]
