"""Selectivity estimation and multi-object evaluation ordering.

§III-C/D2: when a query has conditions on multiple objects, PDC evaluates
them *"sequentially with the order based on their estimated selectivity"* —
the most selective condition first, so that later conditions only check the
already-matched locations.  The estimate comes from the global histogram at
near-zero cost (bounded above/below by partially/fully overlapping bins).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..interval import Interval
from .global_hist import GlobalHistogram

__all__ = ["SelectivityEstimate", "estimate", "order_by_selectivity"]


@dataclass(frozen=True)
class SelectivityEstimate:
    """Bounds on the fraction of elements matching one condition."""

    lower: float
    upper: float

    @property
    def midpoint(self) -> float:
        """Point estimate used for ordering decisions."""
        return 0.5 * (self.lower + self.upper)

    def __post_init__(self) -> None:
        if not (0.0 <= self.lower <= self.upper <= 1.0 + 1e-12):
            raise ValueError(f"invalid selectivity bounds [{self.lower}, {self.upper}]")


def estimate(hist: GlobalHistogram, interval: Interval) -> SelectivityEstimate:
    """Histogram-based selectivity bounds for one object's interval."""
    lower, upper = hist.estimate_selectivity(interval)
    return SelectivityEstimate(lower=lower, upper=min(1.0, upper))


def order_by_selectivity(
    conditions: Sequence[Tuple[str, Interval]],
    histograms: Dict[str, GlobalHistogram],
) -> List[Tuple[str, Interval, SelectivityEstimate]]:
    """Order (object, interval) conditions most-selective-first, by the
    estimate's midpoint, preserving input order among ties — that keeps
    plans deterministic.

    Returns ``(object_name, interval, estimate)`` triples.
    """
    decorated = []
    for pos, (name, interval) in enumerate(conditions):
        est = estimate(histograms[name], interval)
        decorated.append((est.midpoint, pos, name, interval, est))
    decorated.sort(key=lambda t: (t[0], t[1]))
    return [(name, interval, est) for _, _, name, interval, est in decorated]
