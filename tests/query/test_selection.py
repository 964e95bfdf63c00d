"""Selections: invariants, set algebra, batching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SelectionError
from repro.query.selection import Selection, sorted_unique
from repro.types import is_count

coord_sets = st.sets(st.integers(0, 999), max_size=200)


def empty(domain_size):
    return Selection(np.zeros(0, dtype=np.int64), domain_size)


class TestInvariants:
    def test_sorted_unique_enforced(self):
        with pytest.raises(SelectionError):
            Selection(np.array([3, 1, 2]), 10)
        with pytest.raises(SelectionError):
            Selection(np.array([1, 1, 2]), 10)

    def test_domain_bounds_enforced(self):
        with pytest.raises(SelectionError):
            Selection(np.array([10]), 10)
        with pytest.raises(SelectionError):
            Selection(np.array([-1]), 10)

    def test_from_unsorted_normalizes(self):
        s = Selection.from_unsorted(np.array([5, 1, 5, 3]), 10)
        assert s.coords.tolist() == [1, 3, 5]
        assert s.nhits == 3

    def test_empty_and_full(self):
        assert empty(10).is_empty
        full = Selection(np.arange(10), 10)
        assert full.nhits == 10 and not full.is_empty

    def test_2d_rejected(self):
        with pytest.raises(SelectionError):
            Selection(np.zeros((2, 2), dtype=np.int64), 10)


class TestIntegralCoords:
    """Coordinates are refused, never truncated, when they are not integers;
    the domain size is a non-negative integer."""

    def test_fractional_float_rejected(self):
        with pytest.raises(SelectionError, match="integral"):
            Selection(np.array([0.5, 1.7, 2.2]), 10)

    def test_from_unsorted_fractional_rejected(self):
        with pytest.raises(SelectionError, match="integral"):
            Selection.from_unsorted(np.array([1.5, 1.2]), 10)

    def test_nan_rejected(self):
        with pytest.raises(SelectionError, match="integral"):
            Selection(np.array([1.0, np.nan]), 10)

    def test_bool_rejected(self):
        with pytest.raises(SelectionError, match="integers"):
            Selection(np.array([False, True]), 10)

    def test_negative_domain_rejected(self):
        with pytest.raises(SelectionError, match="domain size"):
            Selection(np.zeros(0, dtype=np.int64), -1)

    def test_fractional_domain_rejected(self):
        with pytest.raises(SelectionError, match="domain size"):
            Selection(np.zeros(0, dtype=np.int64), 2.5)

    @pytest.mark.parametrize("flag", [True, False, np.True_], ids=["true", "false", "np_true"])
    def test_bool_domain_rejected(self, flag):
        """``Selection(coords, True)`` was accepted and kept ``True`` as its
        domain size; a bool is refused, as ``is_count`` refuses one."""
        with pytest.raises(SelectionError, match="domain size"):
            Selection(np.zeros(0, dtype=np.int64), flag)
        assert not is_count(flag)

    def test_integral_floats_accepted(self):
        assert Selection(np.array([1.0, 2.0]), 10).coords.tolist() == [1, 2]
        assert Selection.from_unsorted(np.array([2.0, 1.0, 2.0]), 10).coords.tolist() == [1, 2]
        assert Selection(np.array([]), 0).is_empty  # an empty list is float64
        with pytest.raises(SelectionError, match="outside domain"):
            Selection(np.array([1.0, np.inf]), 10)
        with pytest.raises(SelectionError, match="outside domain"):
            Selection(np.array([1e300]), 10)


def parent_check(coords, domain_size):
    """The check the one-pass version replaced: min, max, then every
    difference."""
    c = np.asarray(coords, dtype=np.int64)
    if c.ndim != 1:
        raise SelectionError("selection coords must be 1-D")
    if c.size:
        if int(c.min()) < 0 or int(c.max()) >= domain_size:
            raise SelectionError(f"coords outside domain [0, {domain_size})")
        if np.any(np.diff(c) <= 0):
            raise SelectionError("selection coords must be sorted and unique")


I64 = np.iinfo(np.int64)
int64_coords = st.one_of(
    st.integers(-3, 40), st.sampled_from([I64.min, I64.min + 1, I64.max - 1, I64.max]),
)
domains = st.one_of(st.integers(0, 45), st.sampled_from([I64.max, 2**63]))


def verdict(check, coords, domain_size):
    try:
        check(coords, domain_size)
    except SelectionError as exc:
        return str(exc)
    return "ok"


class TestOnePassCheck:
    """``Selection``'s check accepts and rejects what the min/max/diff check
    did, with the same message: a coordinate outside the domain is reported
    before an unsorted one."""

    @given(st.lists(int64_coords, max_size=12), domains, st.sampled_from(["raw", "sorted", "set"]))
    @settings(max_examples=600, deadline=None)
    def test_equals_the_parent_check(self, values, domain_size, shape):
        if shape == "sorted":
            values = sorted(values)
        elif shape == "set":
            values = sorted(set(values))
        coords = np.array(values, dtype=np.int64)
        assert verdict(Selection, coords, domain_size) == verdict(
            parent_check, coords, domain_size
        )

    @pytest.mark.parametrize("values,domain_size,want", [
        ([], 0, "ok"),
        ([0], 1, "ok"),
        ([1, 1], 5, "sorted"),
        ([4, 2], 5, "sorted"),
        ([2, 9, 1], 5, "domain"),  # unsorted, ends in the domain, middle not
        ([3, -1, 4], 5, "domain"),
        ([I64.min, I64.max], 2**63, "domain"),
        ([0, I64.max], 2**63, "ok"),
        ([I64.max, 0], 2**63, "sorted"),
    ])
    def test_edges(self, values, domain_size, want):
        coords = np.array(values, dtype=np.int64)
        got = verdict(Selection, coords, domain_size)
        assert got == verdict(parent_check, coords, domain_size)
        assert want in got if want != "ok" else got == "ok"


#: NaN-free inputs of every shape ``np.unique`` takes: int64 extremes,
#: negatives and duplicates, floats with infinities and fractions, bools,
#: a 2-D array and a plain Python list (each possibly empty or size 1).
_I64_VALUES = st.one_of(st.integers(-5, 40), st.sampled_from([I64.min, I64.min + 1, I64.max]))
_SPECIAL_FLOATS = st.sampled_from([0.5, -2.25, 7.0, np.inf, -np.inf])
_FLOAT_VALUES = st.one_of(st.floats(allow_nan=False), _SPECIAL_FLOATS)
_FLOAT32_VALUES = st.one_of(st.floats(allow_nan=False, width=32), _SPECIAL_FLOATS)
_NAN_FREE = st.one_of(
    st.lists(_I64_VALUES, max_size=30).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(_FLOAT_VALUES, max_size=30).map(lambda v: np.array(v, dtype=np.float64)),
    st.lists(_FLOAT32_VALUES, max_size=30).map(lambda v: np.array(v, dtype=np.float32)),
    st.lists(st.booleans(), max_size=30).map(lambda v: np.array(v, dtype=bool)),
    st.lists(_I64_VALUES, max_size=15).map(lambda v: np.array(v + v, dtype=np.int64).reshape(2, -1)),
    st.lists(st.integers(-5, 40), max_size=30),
)


def with_nans(values, where):
    """``values`` as a float array with NaN written at the ``where`` slots."""
    out = np.array(values, dtype=np.float64).ravel()
    out[[i % out.size for i in where] if out.size else []] = np.nan
    return out


class TestSortedUnique:
    """The sort-based helper is ``np.unique`` (and ``Selection.union`` is
    ``np.union1d``) without the hash table: same values, same dtype."""

    @given(_NAN_FREE)
    @settings(max_examples=400, deadline=None)
    def test_equals_np_unique(self, values):
        got, want = sorted_unique(values), np.unique(values)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @given(st.sets(_I64_VALUES.filter(lambda v: v >= 0), max_size=30),
           st.sets(_I64_VALUES.filter(lambda v: v >= 0), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_union_equals_np_union1d(self, a, b):
        sa = Selection(np.array(sorted(a), dtype=np.int64), 2**63)
        sb = Selection(np.array(sorted(b), dtype=np.int64), 2**63)
        want = np.union1d(sa.coords, sb.coords)
        got = sa.union(sb).coords
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @given(_NAN_FREE, st.lists(st.integers(0, 60), max_size=4), domains)
    @settings(max_examples=400, deadline=None)
    def test_from_unsorted_verdict_equals_np_unique(self, values, nans, domain_size):
        """``np.unique`` collapses NaNs and the helper does not, so with NaNs
        mixed in the two meet in ``Selection``: the same verdict, the same
        message."""
        for coords in (values, with_nans(values, nans)):
            assert verdict(Selection.from_unsorted, coords, domain_size) == verdict(
                lambda c, d: Selection(np.unique(c), d), coords, domain_size
            )


class TestAlgebra:
    @given(coord_sets, coord_sets)
    @settings(max_examples=200, deadline=None)
    def test_set_semantics(self, a, b):
        sa = Selection.from_unsorted(np.array(sorted(a), dtype=np.int64), 1000)
        sb = Selection.from_unsorted(np.array(sorted(b), dtype=np.int64), 1000)
        assert set(sa.union(sb).coords.tolist()) == a | b
        assert set(sa.intersect(sb).coords.tolist()) == a & b
        assert set(sa.difference(sb).coords.tolist()) == a - b

    def test_domain_mismatch_rejected(self):
        a = empty(10)
        b = empty(20)
        with pytest.raises(SelectionError):
            a.union(b)

    def test_equality(self):
        a = Selection(np.array([1, 2]), 10)
        b = Selection(np.array([1, 2]), 10)
        c = Selection(np.array([1, 3]), 10)
        assert a == b and a != c
        assert a != Selection(np.array([1, 2]), 11)


class TestClipAndBatches:
    def test_clip(self):
        s = Selection(np.array([1, 5, 9, 15]), 20)
        assert s.clip(5, 15).coords.tolist() == [5, 9]
        assert s.clip(0, 100).coords.tolist() == [1, 5, 9, 15]
        assert s.clip(16, 20).is_empty

    @given(coord_sets, st.integers(1, 50))
    @settings(max_examples=100, deadline=None)
    def test_batches_partition_the_selection(self, coords, bs):
        s = Selection.from_unsorted(np.array(sorted(coords), dtype=np.int64), 1000)
        chunks = list(s.batches(bs))
        rejoined = np.concatenate([c.coords for c in chunks]) if chunks else np.array([])
        assert rejoined.tolist() == s.coords.tolist()
        for c in chunks[:-1]:
            assert c.nhits == bs

    def test_empty_selection_yields_one_empty_batch(self):
        chunks = list(empty(10).batches(5))
        assert len(chunks) == 1 and chunks[0].is_empty

    def test_bad_batch_size(self):
        with pytest.raises(SelectionError):
            list(empty(10).batches(0))

    @pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf"), -float("inf")])
    def test_non_integer_batch_size_refused_at_the_call(self, bad):
        with pytest.raises(SelectionError, match="positive integer"):
            Selection(np.arange(5), 10).batches(bad)
