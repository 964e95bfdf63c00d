"""Selections: invariants, set algebra, batching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SelectionError
from repro.query.selection import Selection

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
