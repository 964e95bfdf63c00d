"""Exception hierarchy for the PDC-Query reproduction.

Every error raised by the library derives from :class:`PDCError`, so callers
can catch a single base class.  Sub-classes mirror the major subsystems:
storage, metadata, and query construction / evaluation.
"""

from __future__ import annotations

__all__ = [
    "PDCError",
    "StorageError",
    "ObjectNotFoundError",
    "RegionNotFoundError",
    "MetadataError",
    "MetadataConsistencyError",
    "QueryError",
    "QueryTypeError",
    "QueryShapeError",
    "SelectionError",
    "QueryTimeoutError",
    "RegionUnavailableError",
    "IndexError_",
]


class PDCError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class StorageError(PDCError):
    """A simulated storage operation failed (bad offset, missing file, ...)."""


class RegionUnavailableError(StorageError):
    """A region read kept failing after exhausting its retry budget.

    Raised by the fault-injection layer (:mod:`repro.faults`); the query
    engine degrades to a partial result instead of crashing the query.
    """


class ObjectNotFoundError(PDCError):
    """An object id / name did not resolve to a live PDC object."""


class RegionNotFoundError(PDCError):
    """A region id did not resolve to a region of the target object."""


class MetadataError(PDCError):
    """Metadata creation, lookup, or checkpointing failed."""


class MetadataConsistencyError(MetadataError):
    """A metadata object was observed on a server that does not own it."""


class QueryError(PDCError):
    """Query construction or evaluation failed."""


class QueryTypeError(QueryError):
    """A query constant's dtype does not match the target object's dtype."""


class QueryShapeError(QueryError):
    """Objects combined in one query do not share identical dimensions."""


class SelectionError(QueryError):
    """A selection is invalid for the requested data-retrieval operation."""


class QueryTimeoutError(QueryError):
    """A query exceeded its simulated-time budget (see :mod:`repro.faults`)."""


class IndexError_(PDCError):
    """Bitmap-index construction or lookup failed (named with a trailing
    underscore to avoid shadowing the builtin)."""
