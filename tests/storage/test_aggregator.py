"""Tests for read aggregation (§III-E)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.aggregator import aggregate_extents, coords_to_extents


class TestAggregateExtents:
    def test_empty(self):
        assert aggregate_extents([]) == []

    def test_degenerate_extents_dropped(self):
        assert aggregate_extents([(5, 5), (7, 3)]) == []

    def test_adjacent_merged(self):
        assert aggregate_extents([(0, 4), (4, 8)]) == [(0, 8)]

    def test_gap_respected(self):
        assert aggregate_extents([(0, 4), (6, 8)], gap_threshold=1) == [(0, 4), (6, 8)]
        assert aggregate_extents([(0, 4), (6, 8)], gap_threshold=2) == [(0, 8)]

    def test_unsorted_input(self):
        assert aggregate_extents([(20, 24), (0, 4), (4, 8)]) == [(0, 8), (20, 24)]

    def test_overlapping_merged(self):
        assert aggregate_extents([(0, 10), (5, 15)]) == [(0, 15)]

    def test_contained_absorbed(self):
        assert aggregate_extents([(0, 20), (5, 10)]) == [(0, 20)]

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            aggregate_extents([(0, 1)], gap_threshold=-1)

    @given(
        st.lists(
            st.tuples(st.integers(0, 500), st.integers(0, 500)).map(
                lambda t: (min(t), max(t))
            ),
            max_size=30,
        ),
        st.integers(0, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_coverage_preserved_and_disjoint(self, extents, gap):
        """Merged extents cover exactly the original elements (plus gap
        filler), are sorted, and pairwise separated by more than the gap."""
        merged = aggregate_extents(extents, gap_threshold=gap)
        covered = set()
        for a, b in merged:
            covered.update(range(a, b))
        original = set()
        for a, b in extents:
            original.update(range(a, b))
        assert original <= covered
        # Every covered element is within `gap` of an original element run.
        for a, b in merged:
            assert a in original or any(x in original for x in range(a, min(a + gap + 1, b)))
        # Sorted and separated.
        for (a1, b1), (a2, b2) in zip(merged, merged[1:]):
            assert b1 < a2
            assert a2 - b1 > gap


class TestCoordsToExtents:
    def test_empty(self):
        assert coords_to_extents(np.array([], dtype=np.int64)) == []

    def test_consecutive_become_one_run(self):
        assert coords_to_extents(np.array([3, 4, 5, 6])) == [(3, 7)]

    def test_scattered(self):
        assert coords_to_extents(np.array([1, 5, 9])) == [(1, 2), (5, 6), (9, 10)]

    def test_unsorted_handled(self):
        assert coords_to_extents(np.array([6, 3, 4, 5])) == [(3, 7)]

    def test_gap_merges_runs(self):
        assert coords_to_extents(np.array([0, 1, 4, 5]), gap_threshold=2) == [(0, 6)]

    @given(st.sets(st.integers(0, 300), min_size=1, max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_runs_cover_exactly_the_coords(self, coords):
        extents = coords_to_extents(np.array(sorted(coords), dtype=np.int64))
        covered = set()
        for a, b in extents:
            covered.update(range(a, b))
        assert covered == coords
