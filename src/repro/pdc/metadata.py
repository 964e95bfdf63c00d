"""Metadata objects: object descriptors, key-value tags, and the global
histogram record.

§II: *"Each data object is associated with metadata, including a name, ID,
and other attributes ... In PDC, metadata is managed as an object too.  As
most metadata are naturally small ... they are pre-loaded at server start
time and stored as in-memory objects."*
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..errors import MetadataError
from ..histogram.global_hist import GlobalHistogram, HistogramTable
from ..interval import Interval
from ..types import PDCType, QueryOp

__all__ = ["ObjectMeta", "TagValue", "TagPredicate", "tag_matches"]

TagValue = Any

#: What a metadata query may assert about one tag: an exact value, a
#: numeric :class:`Interval`, or an ``(operator, value)`` pair using the
#: query operators ("RADEG" ≥ 150, ...).
TagPredicate = Any

_MISSING = object()


def tag_matches(value: TagValue, predicate: TagPredicate) -> bool:
    """Evaluate one tag predicate against one tag value."""
    if (
        isinstance(predicate, tuple)
        and len(predicate) == 2
        and isinstance(predicate[0], (str, QueryOp))
    ):
        op = QueryOp(predicate[0])
        if op is QueryOp.EQ:
            return value == predicate[1]
        predicate = Interval.from_op(op, predicate[1])
    if isinstance(predicate, Interval):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return False
        return predicate.contains_value(float(value))
    return value == predicate


@dataclass
class ObjectMeta:
    """Full metadata record of one PDC data object."""

    name: str
    object_id: int
    pdc_type: PDCType
    #: Logical (N-D) shape; None for plain 1-D byte-stream objects.
    dims: Optional[Tuple[int, ...]] = None
    container: str = "default"
    #: User key-value attributes (H5BOSS carries RADEG/DECDEG/PLATE/...).
    tags: Dict[str, TagValue] = field(default_factory=dict)
    #: Every region's histogram, one row each, and their merge (§III-D2 /
    #: §IV): what the metadata service distributes to query servers.
    histograms: Optional[HistogramTable] = field(default=None, init=False)
    #: Name of the sorted-replica key object when a sorted copy exists
    #: (§III-D3 user hint).
    sorted_by: Optional[str] = field(default=None, init=False)
    #: Logical creation timestamp (monotonic counter, not wall clock).
    created_at: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise MetadataError("object name must be non-empty")

    @property
    def global_histogram(self) -> GlobalHistogram:
        """Merged whole-object histogram (§III-D2 / §IV)."""
        return self.histograms.global_histogram

    def matches_tags(self, conditions: Dict[str, TagPredicate]) -> bool:
        """Key-value metadata predicate (§VI-C).

        Each condition value may be an exact value (``RADEG=153.17 AND
        DECDEG=23.06``, the paper's form), a numeric
        :class:`~repro.interval.Interval`, or an ``(op, value)`` pair —
        e.g. ``{"MJD": (">=", 55000)}``.
        """
        for k, predicate in conditions.items():
            v = self.tags.get(k, _MISSING)
            if v is _MISSING or not tag_matches(v, predicate):
                return False
        return True
