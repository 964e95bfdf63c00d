"""Selections: the coordinates of matching elements.

§III-A: PDC-Query returns *"the number of hits ... or the locations (array
coordinates) of the matching elements, or both, which is represented as a
PDC data selection"*.  A :class:`Selection` is a sorted, deduplicated array
of element coordinates in the queried objects' (shared) coordinate space;
it is the handle later passed to ``PDCquery_get_data``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..errors import SelectionError

__all__ = ["Selection"]


@dataclass
class Selection:
    """Sorted unique coordinates of query hits over a 1-D object space."""

    coords: np.ndarray
    #: Size of the coordinate space the selection indexes into.
    domain_size: int

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=np.int64)
        if self.coords.ndim != 1:
            raise SelectionError("selection coords must be 1-D")
        if self.coords.size:
            if int(self.coords.min()) < 0 or int(self.coords.max()) >= self.domain_size:
                raise SelectionError(
                    f"coords outside domain [0, {self.domain_size})"
                )
            if np.any(np.diff(self.coords) <= 0):
                raise SelectionError("selection coords must be sorted and unique")

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_unsorted(cls, coords: np.ndarray, domain_size: int) -> "Selection":
        """Sort + deduplicate raw hit coordinates."""
        return cls(np.unique(np.asarray(coords, dtype=np.int64)), domain_size)

    # ------------------------------------------------------------- set algebra
    def _check_domain(self, other: "Selection") -> None:
        if self.domain_size != other.domain_size:
            raise SelectionError(
                f"selection domains differ: {self.domain_size} vs {other.domain_size}"
            )

    def union(self, other: "Selection") -> "Selection":
        """Merge + deduplicate (the paper's OR combination, §III-C: results
        are combined *"with a merge sort"*)."""
        self._check_domain(other)
        merged = np.union1d(self.coords, other.coords)
        return Selection(merged, self.domain_size)

    def intersect(self, other: "Selection") -> "Selection":
        self._check_domain(other)
        return Selection(
            np.intersect1d(self.coords, other.coords, assume_unique=True),
            self.domain_size,
        )

    def difference(self, other: "Selection") -> "Selection":
        self._check_domain(other)
        return Selection(
            np.setdiff1d(self.coords, other.coords, assume_unique=True),
            self.domain_size,
        )

    # --------------------------------------------------------------- accessors
    @property
    def nhits(self) -> int:
        return int(self.coords.size)

    @property
    def is_empty(self) -> bool:
        return self.coords.size == 0

    def clip(self, start: int, stop: int) -> "Selection":
        """Restrict to the coordinate range ``[start, stop)`` (spatial
        region constraint)."""
        lo = int(np.searchsorted(self.coords, start, side="left"))
        hi = int(np.searchsorted(self.coords, stop, side="left"))
        return Selection(self.coords[lo:hi], self.domain_size)

    def coords_nd(self, shape: Sequence[int]) -> tuple:
        """Hit coordinates unraveled to an N-D object's logical shape
        (one array per dimension, numpy ``unravel_index`` convention)."""
        import numpy as _np

        if int(_np.prod(shape)) != self.domain_size:
            raise SelectionError(
                f"shape {tuple(shape)} does not match domain {self.domain_size}"
            )
        return _np.unravel_index(self.coords, tuple(shape))

    def batches(self, batch_size: int) -> Iterator["Selection"]:
        """Split into chunks of at most ``batch_size`` coordinates
        (``PDCquery_get_data_batch``)."""
        if batch_size <= 0:
            raise SelectionError("batch_size must be positive")
        for off in range(0, max(1, self.nhits), batch_size):
            chunk = self.coords[off : off + batch_size]
            if chunk.size or off == 0:
                yield Selection(chunk, self.domain_size)

    def __len__(self) -> int:
        return self.nhits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Selection):
            return NotImplemented
        return self.domain_size == other.domain_size and np.array_equal(
            self.coords, other.coords
        )
