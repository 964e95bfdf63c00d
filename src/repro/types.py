"""Shared scalar types, operators, and unit helpers.

The paper's C API (Fig. 1) passes an operator (``>``, ``>=``, ``<``, ``<=``,
``=``), a ``pdc_type_t`` data type, and a value pointer.  This module defines
the Python equivalents: :class:`QueryOp`, :class:`PDCType`, and conversion
helpers between PDC types and numpy dtypes.
"""

from __future__ import annotations

import enum
import math
from typing import Optional, Union

import numpy as np

from .errors import PDCError, QueryTypeError

__all__ = [
    "QueryOp",
    "PDCType",
    "Scalar",
    "KB",
    "MB",
    "GB",
    "TB",
    "pdc_type_of_dtype",
    "check_value_type",
    "is_count",
    "is_index",
    "check_timeout",
]

#: Binary size units used throughout (the paper quotes MB/GB region sizes).
KB = 1024
MB = 1024 * KB
GB = 1024 * MB
TB = 1024 * GB

Scalar = Union[int, float]


class QueryOp(enum.Enum):
    """Comparison operator of a simple query condition.

    Matches ``pdc_query_op_t`` in the paper's API: ``>``, ``>=``, ``<``,
    ``<=``, ``=``.
    """

    GT = ">"
    GTE = ">="
    LT = "<"
    LTE = "<="
    EQ = "="

    def apply(self, data: np.ndarray, value: Scalar) -> np.ndarray:
        """Vectorized evaluation of ``data <op> value`` returning a bool mask."""
        if self is QueryOp.GT:
            return data > value
        if self is QueryOp.GTE:
            return data >= value
        if self is QueryOp.LT:
            return data < value
        if self is QueryOp.LTE:
            return data <= value
        return data == value


class PDCType(enum.Enum):
    """Element type of a PDC data object (``pdc_type_t``)."""

    FLOAT = "float"
    DOUBLE = "double"
    INT = "int"
    UINT = "unsigned int"
    INT64 = "long long"
    UINT64 = "unsigned long long"

    @property
    def np_dtype(self) -> np.dtype:
        return _PDC_TO_NP[self]

    @property
    def is_integral(self) -> bool:
        return self not in (PDCType.FLOAT, PDCType.DOUBLE)


_PDC_TO_NP = {
    PDCType.FLOAT: np.dtype(np.float32),
    PDCType.DOUBLE: np.dtype(np.float64),
    PDCType.INT: np.dtype(np.int32),
    PDCType.UINT: np.dtype(np.uint32),
    PDCType.INT64: np.dtype(np.int64),
    PDCType.UINT64: np.dtype(np.uint64),
}
_NP_TO_PDC = {v: k for k, v in _PDC_TO_NP.items()}
#: Finite values a bound of each type may take.  Interval bounds are float64,
#: so an integer beyond 2**53 would not survive them.
_VALUE_RANGE = {
    t: (max(np.iinfo(d).min, -(2**53)), min(np.iinfo(d).max, 2**53))
    if t.is_integral
    else (-float(np.finfo(d).max), float(np.finfo(d).max))
    for t, d in _PDC_TO_NP.items()
}


def pdc_type_of_dtype(dtype: np.dtype) -> PDCType:
    """The :class:`PDCType` backed by a numpy dtype.

    Raises :class:`QueryTypeError` for dtypes PDC does not model.
    """
    try:
        return _NP_TO_PDC[np.dtype(dtype)]
    except KeyError:
        raise QueryTypeError(f"unsupported dtype for PDC objects: {dtype!r}") from None


def check_value_type(value: Scalar, pdc_type: PDCType) -> Scalar:
    """``value`` as a value of ``pdc_type`` — the C API's requirement that
    the value pointer matches the declared ``pdc_type_t``.

    Returns the Python number that round-trips through the numpy dtype
    (floats round to the type's width); NaN, a fraction for an integral
    type and a finite value outside :data:`_VALUE_RANGE` raise
    :class:`QueryTypeError`.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise QueryTypeError(f"query value must be a number, got {type(value).__name__}")
    if isinstance(value, np.generic):
        value = value.item()  # a NumPy scalar would compare in its own width
    lo, hi = _VALUE_RANGE[pdc_type]
    if pdc_type.is_integral:
        # NaN and the infinities fail the range test.
        if lo <= value <= hi and value == int(value):
            return int(value)
    elif lo <= value <= hi or value in (math.inf, -math.inf):
        return float(pdc_type.np_dtype.type(value))
    raise QueryTypeError(f"value {value!r} is not representable as {pdc_type.value}")


def is_count(value) -> bool:
    """The one test of a count knob (a window width, a batch size, an
    entry bound): a Python or NumPy integer of at least 1.  A fraction,
    NaN, the infinities and a bool are not counts."""
    return (
        isinstance(value, (int, np.integer))
        and not isinstance(value, bool)
        and value >= 1
    )


def is_index(value) -> bool:
    """The one test of a position (a write offset, a region id): a Python
    or NumPy integer of at least 0.  A fraction, a numeric string and a
    bool are not positions."""
    return (
        isinstance(value, (int, np.integer))
        and not isinstance(value, bool)
        and value >= 0
    )


def check_timeout(value) -> Optional[float]:
    """The one rule of a per-query time budget (simulated seconds):
    ``None`` (no budget) or a finite number above zero, returned as a
    float.  NaN, the infinities, zero, negatives and non-numbers raise
    :class:`PDCError`."""
    if value is None:
        return None
    seconds = math.nan
    if not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating)):
        try:
            seconds = float(value)
        except OverflowError:  # an integer past the float range
            seconds = math.inf
    if not (math.isfinite(seconds) and seconds > 0):
        raise PDCError(f"timeout_s must be a finite number > 0 (or None), not {value!r}")
    return seconds
