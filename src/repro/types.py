"""Shared scalar types, operators, and unit helpers.

The paper's C API (Fig. 1) passes an operator (``>``, ``>=``, ``<``, ``<=``,
``=``), a ``pdc_type_t`` data type, and a value pointer.  This module defines
the Python equivalents: :class:`QueryOp`, :class:`PDCType`, and conversion
helpers between PDC types and numpy dtypes.
"""

from __future__ import annotations

import enum
from typing import Union

import numpy as np

from .errors import QueryTypeError

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


def pdc_type_of_dtype(dtype: np.dtype) -> PDCType:
    """The :class:`PDCType` backed by a numpy dtype.

    Raises :class:`QueryTypeError` for dtypes PDC does not model.
    """
    try:
        return _NP_TO_PDC[np.dtype(dtype)]
    except KeyError:
        raise QueryTypeError(f"unsupported dtype for PDC objects: {dtype!r}") from None


def check_value_type(value: Scalar, pdc_type: PDCType) -> Scalar:
    """Validate that ``value`` is representable in ``pdc_type``.

    Mirrors the C API's requirement that the value pointer matches the
    declared ``pdc_type_t``.  Returns the value cast to the Python type that
    round-trips through the numpy dtype.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise QueryTypeError(f"query value must be a number, got {type(value).__name__}")
    np_value = np.asarray(value).astype(pdc_type.np_dtype)
    if pdc_type.is_integral:
        if float(value) != float(np_value):
            raise QueryTypeError(
                f"value {value!r} is not representable as {pdc_type.value}"
            )
        return int(np_value)
    return float(np_value)
