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
from ..types import is_count

__all__ = ["Selection", "sorted_unique"]


def sorted_unique(values) -> np.ndarray:
    """The sorted distinct values of ``values`` — ``np.unique`` without its
    hash table: sort, then keep the first of each run of equal neighbours.
    Like ``np.unique`` it keeps the input dtype and flattens N-D and list
    input; unlike it, NaNs are not collapsed (NaN != NaN)."""
    out = np.sort(np.asarray(values), axis=None)
    if out.size > 1:
        first = np.empty(out.size, dtype=bool)
        first[0] = True
        np.not_equal(out[1:], out[:-1], out=first[1:])
        out = out[first]
    return out


def _int64_coords(coords, domain_size) -> np.ndarray:
    """``coords`` as a 1-D int64 array.  Integer input converts as is; a
    float coordinate must be integral (a fractional one or NaN is refused,
    never truncated; an infinite one is outside the domain, checked before
    the cast); any other dtype, bool included, is refused."""
    if (
        not isinstance(domain_size, (int, np.integer))
        or isinstance(domain_size, bool)
        or domain_size < 0
    ):
        raise SelectionError(
            f"domain size must be a non-negative integer, not {domain_size!r}"
        )
    raw = np.asarray(coords)
    if raw.ndim != 1:
        raise SelectionError("selection coords must be 1-D")
    if raw.dtype.kind in "iu":
        return raw.astype(np.int64, copy=False)
    if raw.dtype.kind != "f":
        raise SelectionError(f"selection coords must be integers, not {raw.dtype}")
    if not np.array_equal(raw, np.trunc(raw)):  # NaN and infinities fail too
        raise SelectionError("selection coords must be integral")
    if raw.size and (raw.min() < 0 or raw.max() >= domain_size):
        raise SelectionError(f"coords outside domain [0, {domain_size})")
    return raw.astype(np.int64)


@dataclass(frozen=True, eq=False)
class Selection:
    """Sorted unique coordinates of query hits over a 1-D object space.

    Frozen: an answer the semantic cache memoizes is handed to every caller
    that asks for it, so its attributes cannot be rebound (the cache also
    makes the memoized ``coords`` array read-only)."""

    coords: np.ndarray
    #: Size of the coordinate space the selection indexes into.
    domain_size: int

    def __post_init__(self) -> None:
        c = _int64_coords(self.coords, self.domain_size)
        object.__setattr__(self, "coords", c)
        if c.size:
            # One pass: strictly increasing coords put their bounds at the
            # ends; only a rejected array pays for min/max, so a coordinate
            # outside the domain is still reported before an unsorted one.
            ordered = bool(np.greater(c[1:], c[:-1]).all())
            lo, hi = (c[0], c[-1]) if ordered else (c.min(), c.max())
            if int(lo) < 0 or int(hi) >= self.domain_size:
                raise SelectionError(
                    f"coords outside domain [0, {self.domain_size})"
                )
            if not ordered:
                raise SelectionError("selection coords must be sorted and unique")

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_unsorted(cls, coords: np.ndarray, domain_size: int) -> "Selection":
        """Sort + deduplicate raw hit coordinates."""
        return cls(sorted_unique(coords), domain_size)

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
        merged = sorted_unique(np.concatenate((self.coords, other.coords)))
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
        (``PDCquery_get_data_batch``); an empty selection is one empty
        chunk.  A size that is not a positive integer is refused here, at
        the call."""
        if not is_count(batch_size):
            raise SelectionError(
                f"batch_size must be a positive integer, not {batch_size!r}"
            )
        return (
            Selection(self.coords[off : off + batch_size], self.domain_size)
            for off in range(0, max(1, self.nhits), batch_size)
        )

    def __len__(self) -> int:
        return self.nhits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Selection):
            return NotImplemented
        return self.domain_size == other.domain_size and np.array_equal(
            self.coords, other.coords
        )
