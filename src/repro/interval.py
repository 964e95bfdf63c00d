"""Value intervals — the normalized form of range conditions.

Every simple query condition (``Energy > 2.0``, ``x = 3``) and every
conjunction of conditions on the same object normalizes to an
:class:`Interval`: a lower/upper bound pair with open/closed endpoints,
possibly unbounded on either side.  Histogram selectivity estimation, bitmap
candidate selection, sorted-layout binary search, and region elimination all
consume this one representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import QueryError, QueryTypeError
from .types import PDCType, QueryOp, Scalar, check_value_type

__all__ = ["Interval"]

#: Magnitude from which a 64-bit integer has no exact float64 neighbourhood.
_FLOAT64_EXACT = 2**53


def _typed_bound(bound: Scalar, pdc_type: PDCType) -> float:
    """One bound of :meth:`Interval.typed`."""
    value = check_value_type(bound, pdc_type)
    if pdc_type in (PDCType.INT64, PDCType.UINT64) and abs(value) >= _FLOAT64_EXACT:
        raise QueryTypeError(
            f"bound {bound!r} on a {pdc_type.value} object: 64-bit integers compare "
            f"exactly only below 2**53 in magnitude"
        )
    return float(value)


@dataclass(frozen=True)
class Interval:
    """A (possibly half-) bounded interval of values.

    ``lo=None`` means unbounded below; ``hi=None`` unbounded above.
    ``lo_closed``/``hi_closed`` select ≤ vs <.  An equality condition is the
    degenerate closed interval ``[v, v]``.
    """

    lo: Optional[float] = None
    hi: Optional[float] = None
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self) -> None:
        if self.lo is not None and self.hi is not None:
            if self.lo > self.hi:
                raise QueryError(f"empty interval: lo={self.lo} > hi={self.hi}")
            if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
                raise QueryError(f"empty interval at {self.lo} with open endpoint")

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_op(cls, op: QueryOp, value: Scalar) -> "Interval":
        """Interval matched by ``x <op> value``."""
        v = float(value)
        if op is QueryOp.GT:
            return cls(lo=v, hi=None, lo_closed=False)
        if op is QueryOp.GTE:
            return cls(lo=v, hi=None, lo_closed=True)
        if op is QueryOp.LT:
            return cls(lo=None, hi=v, hi_closed=False)
        if op is QueryOp.LTE:
            return cls(lo=None, hi=v, hi_closed=True)
        return cls(lo=v, hi=v, lo_closed=True, hi_closed=True)

    def typed(self, pdc_type: PDCType) -> "Interval":
        """This interval under the one comparison rule: each present bound
        becomes a value of its object's element type ``pdc_type``
        (:func:`~repro.types.check_value_type`: floats round to the type's
        width, an integral type refuses a fraction) and only then is
        compared.  Such bounds are exact in the object's dtype, so mask,
        min/max pruning, bin classification and binary search cannot
        disagree.  Bounds that round onto one value with an open endpoint
        raise like any empty interval.  A 64-bit integral object refuses a
        bound of magnitude 2**53 or more with :class:`QueryTypeError`: its
        values meet a bound as float64 images, exact only below 2**53 (a
        value past it rounds to at least 2**53, still beyond every accepted
        bound)."""
        lo, hi = (b if b is None else _typed_bound(b, pdc_type) for b in (self.lo, self.hi))
        return Interval(lo, hi, self.lo_closed, self.hi_closed)

    # ------------------------------------------------------------- operations
    def intersect(self, other: "Interval") -> Optional["Interval"]:
        """Intersection, or ``None`` when it is empty."""
        # Tightest bound wins; ties are closed only if both are closed.
        if self.lo is None:
            lo, lo_closed = other.lo, other.lo_closed
        elif other.lo is None:
            lo, lo_closed = self.lo, self.lo_closed
        elif self.lo > other.lo:
            lo, lo_closed = self.lo, self.lo_closed
        elif other.lo > self.lo:
            lo, lo_closed = other.lo, other.lo_closed
        else:
            lo, lo_closed = self.lo, self.lo_closed and other.lo_closed

        if self.hi is None:
            hi, hi_closed = other.hi, other.hi_closed
        elif other.hi is None:
            hi, hi_closed = self.hi, self.hi_closed
        elif self.hi < other.hi:
            hi, hi_closed = self.hi, self.hi_closed
        elif other.hi < self.hi:
            hi, hi_closed = other.hi, other.hi_closed
        else:
            hi, hi_closed = self.hi, self.hi_closed and other.hi_closed

        if lo is not None and hi is not None:
            if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
                return None
        return Interval(lo=lo, hi=hi, lo_closed=lo_closed, hi_closed=hi_closed)

    def covers(self, other: "Interval") -> bool:
        """True when every value matching ``other`` also matches ``self``
        (interval subsumption — the semantic-cache reuse test)."""
        if self.lo is not None:
            if other.lo is None:
                return False
            if other.lo < self.lo:
                return False
            if other.lo == self.lo and other.lo_closed and not self.lo_closed:
                return False
        if self.hi is not None:
            if other.hi is None:
                return False
            if other.hi > self.hi:
                return False
            if other.hi == self.hi and other.hi_closed and not self.hi_closed:
                return False
        return True

    def contains_value(self, v: float) -> bool:
        return self.overlaps_range(v, v)

    def overlaps_range(self, lo: float, hi: float) -> bool:
        """True when the closed value range ``[lo, hi]`` intersects this
        interval at all (region/bin elimination test)."""
        if self.lo is not None and (hi < self.lo or (hi == self.lo and not self.lo_closed)):
            return False
        if self.hi is not None and (lo > self.hi or (lo == self.hi and not self.hi_closed)):
            return False
        return True

    def _within(self, above: np.ndarray, below: np.ndarray) -> np.ndarray:
        """Elementwise: ``above`` clears the lower bound and ``below`` the
        upper one.  Each present bound is one comparison (the second is
        AND-ed into the first in place); an absent bound tests nothing."""
        m = None
        if self.lo is not None:
            m = (above >= self.lo) if self.lo_closed else (above > self.lo)
        if self.hi is not None:
            h = (below <= self.hi) if self.hi_closed else (below < self.hi)
            if m is None:
                m = h
            else:
                m &= h
        return np.ones(np.shape(above), dtype=bool) if m is None else m

    def contains_range_arrays(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Which closed value ranges ``[lo[i], hi[i]]`` lie fully inside
        this interval (vectorized "bin fully covered" test)."""
        return self._within(lo, hi)

    def overlaps_range_arrays(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`overlaps_range` over arrays of closed value
        ranges ``[lo[i], hi[i]]``."""
        return self._within(hi, lo)

    def mask(self, data: np.ndarray) -> np.ndarray:
        """Vectorized membership test over an array."""
        return self._within(data, data)

    # -------------------------------------------------------------- inspection
    def finite_bounds(self) -> Tuple[float, float]:
        """Bounds with infinities substituted for missing endpoints."""
        return (
            -math.inf if self.lo is None else self.lo,
            math.inf if self.hi is None else self.hi,
        )

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else f"{self.lo:g}"
        hi = "+inf" if self.hi is None else f"{self.hi:g}"
        lb = "[" if self.lo_closed and self.lo is not None else "("
        rb = "]" if self.hi_closed and self.hi is not None else ")"
        return f"{lb}{lo}, {hi}{rb}"
