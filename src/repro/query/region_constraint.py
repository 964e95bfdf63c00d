"""Spatial region constraints, including multi-dimensional hyperslabs.

§III-A: *"the user can specify a region as the spatial constraint of a
query, where the region selection can be arbitrary and does not need to
match any of the existing PDC internal region partitions."*  PDC objects
are byte streams whose logical shape may be multi-dimensional
(``pdc_region_t`` carries per-dimension offsets/sizes); the VPIC arrays
are 1-D, but the API supports N-D.

A :class:`HyperSlab` is a per-dimension half-open box over an object's
logical shape.  Internally PDC stores objects flattened in C order, so a
hyperslab resolves to:

* a flat **bounding range** ``[start, stop)`` — what region selection and
  scan-cost accounting use (a superset of the slab);
* an exact **coordinate filter** — membership of flat coordinates in the
  box, applied to candidate hits.

A plain ``(start, stop)`` tuple remains the 1-D fast path throughout the
public API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from ..errors import QueryError

__all__ = ["HyperSlab", "RegionConstraint", "normalize_constraint"]


@dataclass(frozen=True)
class HyperSlab:
    """An N-D half-open box ``[start_d, stop_d)`` per dimension."""

    #: Logical shape of the object this slab addresses.
    shape: Tuple[int, ...]
    #: Per-dimension half-open ranges, same length as ``shape``.
    ranges: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.shape) != len(self.ranges):
            raise QueryError(
                f"hyperslab has {len(self.ranges)} ranges for a "
                f"{len(self.shape)}-dimensional shape"
            )
        if not self.shape:
            raise QueryError("hyperslab needs at least one dimension")
        for d, ((start, stop), extent) in enumerate(zip(self.ranges, self.shape)):
            if not (0 <= start < stop <= extent):
                raise QueryError(
                    f"dimension {d}: range [{start}, {stop}) invalid for "
                    f"extent {extent}"
                )

    # ------------------------------------------------------------- geometry
    @property
    def n_elements(self) -> int:
        """Elements inside the box."""
        n = 1
        for start, stop in self.ranges:
            n *= stop - start
        return n

    def flat_bounds(self) -> Tuple[int, int]:
        """Tightest flat (C-order) range containing every box element."""
        first = np.ravel_multi_index(
            tuple(start for start, _ in self.ranges), self.shape
        )
        last = np.ravel_multi_index(
            tuple(stop - 1 for _, stop in self.ranges), self.shape
        )
        return int(first), int(last) + 1

    def contains_flat(self, coords: np.ndarray) -> np.ndarray:
        """Boolean mask: which flat coordinates fall inside the box."""
        if coords.size == 0:
            return np.zeros(0, dtype=bool)
        nd = np.unravel_index(coords, self.shape)
        start, stop = self.ranges[0]
        mask = (nd[0] >= start) & (nd[0] < stop)
        for axis_coords, (start, stop) in zip(nd[1:], self.ranges[1:]):
            mask &= (axis_coords >= start) & (axis_coords < stop)
        return mask

    def filter_flat(self, coords: np.ndarray) -> np.ndarray:
        """Keep only the flat coordinates inside the box."""
        return coords[self.contains_flat(coords)]

    @property
    def is_flat_contiguous(self) -> bool:
        """True when the box is one contiguous flat range (full extent in
        every dimension but the first)."""
        return all(
            (start, stop) == (0, extent)
            for (start, stop), extent in zip(self.ranges[1:], self.shape[1:])
        )

    def __str__(self) -> str:
        dims = " x ".join(f"[{a}, {b})" for a, b in self.ranges)
        return f"HyperSlab({dims} of {self.shape})"


#: What the public API accepts as a region constraint.
RegionConstraint = Union[Tuple[int, int], HyperSlab]


def normalize_constraint(
    constraint: Optional[RegionConstraint], domain: int
) -> Tuple[Tuple[int, int], Optional[HyperSlab]]:
    """Resolve a constraint to ``(flat bounds, exact filter)``.

    The filter is ``None`` when the bounds are already exact (1-D ranges
    and flat-contiguous slabs).
    """
    if constraint is None:
        return (0, domain), None
    if isinstance(constraint, HyperSlab):
        n = int(np.prod(constraint.shape))
        if n != domain:
            raise QueryError(
                f"hyperslab shape {constraint.shape} has {n} elements; "
                f"object has {domain}"
            )
        bounds = constraint.flat_bounds()
        return bounds, (None if constraint.is_flat_contiguous else constraint)
    start, stop = int(constraint[0]), int(constraint[1])
    start = max(0, start)
    stop = min(domain, stop)
    if stop <= start:
        raise QueryError(f"empty region constraint [{start}, {stop})")
    return (start, stop), None
