"""Unit tests for repro.types: operators, PDC types, value checking."""

import numpy as np
import pytest

from repro.errors import QueryTypeError
from repro.types import (
    GB,
    KB,
    MB,
    TB,
    PDCType,
    QueryOp,
    check_value_type,
    pdc_type_of_dtype,
)


class TestUnits:
    def test_progression(self):
        assert KB == 1024
        assert MB == 1024 * KB
        assert GB == 1024 * MB
        assert TB == 1024 * GB


class TestQueryOp:
    @pytest.mark.parametrize(
        "op,expected",
        [
            (QueryOp.GT, [False, False, True]),
            (QueryOp.GTE, [False, True, True]),
            (QueryOp.LT, [True, False, False]),
            (QueryOp.LTE, [True, True, False]),
            (QueryOp.EQ, [False, True, False]),
        ],
    )
    def test_apply(self, op, expected):
        data = np.array([1.0, 2.0, 3.0])
        assert op.apply(data, 2.0).tolist() == expected

    def test_from_symbol(self):
        assert QueryOp(">") is QueryOp.GT
        assert QueryOp("=") is QueryOp.EQ


class TestPDCType:
    def test_dtype_roundtrip(self):
        for t in PDCType:
            assert pdc_type_of_dtype(t.np_dtype) is t

    def test_integral_flag(self):
        assert PDCType.INT.is_integral
        assert PDCType.UINT64.is_integral
        assert not PDCType.FLOAT.is_integral

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(QueryTypeError):
            pdc_type_of_dtype(np.dtype(np.complex128))
        with pytest.raises(QueryTypeError):
            pdc_type_of_dtype(np.dtype("S8"))


class TestCheckValueType:
    def test_float_value_ok(self):
        assert check_value_type(2.5, PDCType.FLOAT) == pytest.approx(2.5)

    def test_float_value_rounds_through_float32(self):
        # 0.1 is not exactly representable; the check returns the f32 value.
        v = check_value_type(0.1, PDCType.FLOAT)
        assert v == pytest.approx(np.float32(0.1))

    def test_int_value_ok(self):
        assert check_value_type(7, PDCType.INT) == 7

    def test_fractional_int_rejected(self):
        with pytest.raises(QueryTypeError):
            check_value_type(2.5, PDCType.INT)

    def test_bool_rejected(self):
        with pytest.raises(QueryTypeError):
            check_value_type(True, PDCType.INT)

    def test_non_number_rejected(self):
        with pytest.raises(QueryTypeError):
            check_value_type("2.0", PDCType.FLOAT)

    def test_numpy_scalars_accepted(self):
        assert check_value_type(np.float64(1.5), PDCType.DOUBLE) == 1.5
        assert check_value_type(np.int32(3), PDCType.INT64) == 3

    def test_infinities_are_float_values(self):
        assert check_value_type(np.inf, PDCType.FLOAT) == np.inf
        assert check_value_type(-np.inf, PDCType.DOUBLE) == -np.inf
        with pytest.raises(QueryTypeError):
            check_value_type(np.inf, PDCType.INT64)

    @pytest.mark.parametrize("pdc_type", list(PDCType))
    @pytest.mark.parametrize("nan", [float("nan"), np.float32("nan")])
    def test_nan_rejected(self, pdc_type, nan):
        with pytest.raises(QueryTypeError):
            check_value_type(nan, pdc_type)

    def test_finite_value_beyond_the_type_rejected_without_a_warning(self):
        """``1e300`` as FLOAT used to leak ``RuntimeWarning: overflow
        encountered in cast`` and come back as ``inf``."""
        for value, pdc_type in [
            (1e300, PDCType.FLOAT), (-1e300, PDCType.FLOAT),
            (np.float64(1e39), PDCType.FLOAT), (10**400, PDCType.DOUBLE),
            (3e9, PDCType.INT), (-1, PDCType.UINT), (2**32, PDCType.UINT),
        ]:
            with pytest.raises(QueryTypeError):
                check_value_type(value, pdc_type)
        assert check_value_type(3e38, PDCType.FLOAT) == float(np.float32(3e38))
        assert check_value_type(np.float32(3e38), PDCType.DOUBLE) == float(np.float32(3e38))

    def test_integer_beyond_float64_exactness_rejected(self):
        """Interval bounds are float64: ``2**53 + 1`` would be compared as
        ``2**53`` (an int64 object ``arange(2**53 - 512, 2**53 + 512)``
        answered ``id = 2**53 + 1`` with 2 hits, truth 1)."""
        for pdc_type in (PDCType.INT64, PDCType.UINT64):
            assert check_value_type(2**53, pdc_type) == 2**53
            with pytest.raises(QueryTypeError):
                check_value_type(2**53 + 1, pdc_type)
            with pytest.raises(QueryTypeError):
                check_value_type(np.uint64(2**63), pdc_type)
        assert check_value_type(-(2**53), PDCType.INT64) == -(2**53)
        with pytest.raises(QueryTypeError):
            check_value_type(-(2**53) - 1, PDCType.INT64)
