"""Data reorganization with sorting (§III-D3).

When users hint that queries will target one object (e.g. VPIC ``Energy``),
PDC builds a **sorted replica**: all of the object's values sorted by the
sort-key object, partitioned into regions like the original.  A range query
on the sort key then touches a contiguous run of regions, and its results
are contiguous on storage — the effect that makes PDC-SH the fastest
single-object configuration in Fig. 3.

The replica keeps a permutation array mapping sorted positions back to the
original coordinates, because query results must be reported in the
*original* object's coordinate space (and non-key objects are materialized
through the same permutation).

The sorted arrays are never written after the build: a write to a covered
object marks its coordinates *dirty*, answered from the live payload
(:func:`repro.query.kernels.replica_coords`) until a re-sort folds them in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import QueryError, QueryTypeError
from ..types import check_value_type, pdc_type_of_dtype

__all__ = ["SortedReplica"]


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` as int64, bit for bit.

    A native-order number of at most 4 bytes is mapped to unsigned bits in
    value order (−0.0 folded to +0.0 first; payloads hold no NaN) and
    packed above its position: one in-place sort of the uint64 keys —
    many times faster than numpy's timsort — leaves the stable order in
    the low halves.  Wider keys, any other dtype and 2**32 elements or
    more take the stable argsort.
    """
    n, dtype = keys.size, keys.dtype
    width = dtype.itemsize
    if dtype.kind not in "biuf" or not dtype.isnative or width > 4 or n >= 2**32:
        return np.argsort(keys, kind="stable")
    if dtype.kind == "f":
        keys = keys + dtype.type(0)  # −0.0 + 0.0 is +0.0
    bits = keys.view(f"u{width}")
    sign = bits.dtype.type(1 << (8 * width - 1))
    if dtype.kind == "f":
        bits = np.where(bits & sign, ~bits, bits | sign)
    elif dtype.kind == "i":
        bits = bits ^ sign
    packed = bits.astype(np.uint64)
    packed <<= np.uint64(32)
    packed |= np.arange(n, dtype=np.uint64)
    packed.sort()
    packed &= np.uint64(0xFFFFFFFF)
    return packed.view(np.int64)


@dataclass
class SortedReplica:
    """A by-value sorted copy of one or more objects.

    ``key_values`` is the sort-key object's data in ascending order;
    ``permutation[i]`` is the original coordinate of sorted position ``i``.
    ``companions`` holds other objects' data re-ordered by the same
    permutation (the paper sorts all 7 VPIC variables by energy so matching
    rows stay together).
    """

    key_name: str
    key_values: np.ndarray
    permutation: np.ndarray
    companions: Dict[str, np.ndarray]
    #: Base coordinates written since the build, as a mask over the base
    #: (``None`` until the first write) and as the same set ascending.  A
    #: coordinate past the base came from an append: dirty by position.
    dirty_mask: Optional[np.ndarray] = None
    dirty: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    # ------------------------------------------------------------ construction
    @classmethod
    def build(
        cls,
        key_name: str,
        key_values: np.ndarray,
        companions: Optional[Dict[str, np.ndarray]] = None,
    ) -> "SortedReplica":
        """Sort ``key_values`` ascending, applying the same permutation to
        every companion object.

        Uses a stable sort so replicas are bit-deterministic
        (:func:`_stable_order`).
        """
        key_values = np.asarray(key_values)
        if key_values.ndim != 1 or key_values.size == 0:
            raise QueryError("sorted replica needs non-empty 1-D key data")
        companions = companions or {}
        for name, arr in companions.items():
            if np.asarray(arr).shape != key_values.shape:
                raise QueryError(
                    f"companion {name!r} shape {np.asarray(arr).shape} != key shape"
                )
        perm = _stable_order(key_values)
        return cls(
            key_name=key_name,
            key_values=key_values[perm],
            permutation=perm,
            companions={n: np.asarray(a)[perm] for n, a in companions.items()},
        )

    # -------------------------------------------------------------- inspection
    @property
    def n_elements(self) -> int:
        return int(self.key_values.size)

    @property
    def nbytes(self) -> int:
        """Replica storage cost: sorted key + permutation + companions —
        the *"full copy of the data"* §V mentions (plus the coordinate map)."""
        return (
            self.key_values.nbytes
            + self.permutation.nbytes
            + sum(a.nbytes for a in self.companions.values())
        )

    # ------------------------------------------------------------------ writes
    def mark_dirty(self, start: int, stop: int) -> None:
        """Record a write of coordinates ``[start, stop)``: O(span) on the
        mask, one splice of the ascending set."""
        stop = min(stop, self.n_elements)
        if start >= stop:
            return
        if self.dirty_mask is None:
            self.dirty_mask = np.zeros(self.n_elements, dtype=bool)
        self.dirty_mask[start:stop] = True
        lo, hi = np.searchsorted(self.dirty, (start, stop))
        span = np.arange(start, stop, dtype=np.int64)
        self.dirty = np.concatenate((self.dirty[:lo], span, self.dirty[hi:]))

    def dirty_coords(self, n_live: int) -> np.ndarray:
        """Ascending coordinates of an ``n_live``-element object that the
        base does not hold: the dirty set, then the appended tail."""
        if n_live <= self.n_elements:
            return self.dirty
        tail = np.arange(self.n_elements, n_live, dtype=np.int64)
        return np.concatenate((self.dirty, tail)) if self.dirty.size else tail

    # ------------------------------------------------------------------ search
    def _probe(self, bound: float):
        """``bound`` as a key-dtype scalar, so ``np.searchsorted`` searches
        the keys in place (a Python float makes it cast the *whole key
        array* to float64 per search).  Every interval past the query gate
        (:meth:`~repro.interval.Interval.typed`) holds such bounds; any
        other is refused, never compared under a second rule."""
        dtype = self.key_values.dtype
        if check_value_type(bound, pdc_type_of_dtype(dtype)) != bound:
            raise QueryTypeError(f"bound {bound!r} is not a {dtype} value")
        return dtype.type(bound)

    def search_range(
        self,
        lo: Optional[float],
        hi: Optional[float],
        lo_closed: bool = True,
        hi_closed: bool = True,
    ) -> Tuple[int, int]:
        """Sorted-position run ``[start, stop)`` matching a range condition
        via binary search — O(log n) instead of a scan."""
        if lo is None:
            start = 0
        else:
            side = "left" if lo_closed else "right"
            start = int(np.searchsorted(self.key_values, self._probe(lo), side=side))
        if hi is None:
            stop = self.n_elements
        else:
            side = "right" if hi_closed else "left"
            stop = int(np.searchsorted(self.key_values, self._probe(hi), side=side))
        return start, max(start, stop)

    def original_coords(self, start: int, stop: int) -> np.ndarray:
        """Original-object coordinates of sorted run ``[start, stop)``."""
        if not (0 <= start <= stop <= self.n_elements):
            raise QueryError(f"bad sorted run [{start}, {stop})")
        return self.permutation[start:stop]

    def companion_slice(self, name: str, start: int, stop: int) -> np.ndarray:
        """Values of a companion object over a sorted run — one contiguous
        read on the replica instead of scattered reads on the original."""
        if name == self.key_name:
            return self.key_values[start:stop]
        try:
            return self.companions[name][start:stop]
        except KeyError:
            raise QueryError(f"object {name!r} is not part of this replica") from None
