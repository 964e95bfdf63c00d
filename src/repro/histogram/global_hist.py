"""Global histograms: merged per-region histograms for a whole object.

§III-D2: *"further performance improvement can be achieved if we can merge
the local histograms of different regions and obtain a 'global' histogram of
an entire object. As the metadata is cached in all servers after the
metadata distribution, such a global histogram can be used multiple times
with very low access latency when serving a series of queries."*

:class:`GlobalHistogram` wraps the merged :class:`MergeableHistogram` with
the operands it was merged from and the planner-facing estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import QueryError
from ..interval import Interval
from .mergeable import MergeableHistogram

__all__ = ["GlobalHistogram"]


@dataclass
class GlobalHistogram:
    """Merged histogram of an entire object.

    Region elimination does not go through it: the region extrema live in
    ``StoredObject.rmin``/``rmax`` and ``planner.surviving_regions`` is the
    one place they meet an interval.
    """

    merged: MergeableHistogram
    #: region id → (the region histogram, it coarsened to ``merged``'s
    #: width): the merge's operands, kept so the next merge re-coarsens only
    #: what changed.
    operands: Dict[int, Tuple[MergeableHistogram, MergeableHistogram]]

    @classmethod
    def build(
        cls,
        region_histograms: Dict[int, MergeableHistogram],
        previous: Optional["GlobalHistogram"] = None,
    ) -> "GlobalHistogram":
        """Merge per-region histograms (keyed by region id) into one.

        ``previous`` — the global histogram this one replaces — lends its
        coarsened operand for every region whose histogram is still the
        same object at the same merged width.  A histogram is never
        changed in place (every writer installs a new one), so a lent
        operand is what :meth:`MergeableHistogram.coarsened` would return
        again.  At an unchanged width the merged counts are then the
        previous ones with only the changed regions' operands swapped
        (:meth:`MergeableHistogram.replaced`); otherwise every operand is
        merged again.  Either way the result equals a build without
        ``previous`` field for field.
        """
        if not region_histograms:
            raise QueryError("cannot build a global histogram from zero regions")
        width = max(h.bin_width for h in region_histograms.values())
        kept = {}
        if previous is not None and previous.merged.bin_width == width:
            kept = previous.operands
        operands, removed, added = {}, [], []
        for rid, h in region_histograms.items():
            operand = kept.get(rid)
            if operand is None or operand[0] is not h:
                if operand is not None:
                    removed.append(operand[1])
                operand = (h, h.coarsened(width))
                added.append(operand[1])
            operands[rid] = operand
        coarse_all = [c for _, c in operands.values()]
        # A region no longer listed would have to be taken out as well:
        # merge from scratch then (a write never removes one).
        if kept and len(kept) == len(operands) - len(added) + len(removed):
            merged = previous.merged.replaced(coarse_all, removed, added)
        else:
            merged = MergeableHistogram.merge_aligned(coarse_all)
        return cls(merged=merged, operands=operands)

    def __getstate__(self) -> dict:
        # Operands are working state of the merge, recomputable from the
        # region histograms: a metadata checkpoint does not carry them.
        return {**self.__dict__, "operands": {}}

    # ------------------------------------------------------------ planner api
    def estimate_selectivity(self, interval: Interval) -> Tuple[float, float]:
        """(lower, upper) selectivity bounds over the whole object."""
        return self.merged.estimate_selectivity(interval)

    def estimate_hits(self, interval: Interval) -> Tuple[int, int]:
        return self.merged.estimate_hits(interval)
