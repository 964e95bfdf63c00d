"""Region partitioning and keys."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PDCError
from repro.pdc.region import partition, region_key


class TestPartition:
    @given(st.integers(1, 10_000), st.integers(1, 500))
    @settings(max_examples=300, deadline=None)
    def test_covers_exactly(self, n, size):
        chunks = partition(n, size)
        # Contiguous, ordered, exact coverage.
        assert chunks[0][0] == 0
        total = 0
        prev_stop = 0
        for off, count in chunks:
            assert off == prev_stop
            assert 1 <= count <= size
            prev_stop = off + count
            total += count
        assert total == n
        # Only the final chunk may be short.
        for off, count in chunks[:-1]:
            assert count == size

    def test_single_region(self):
        assert partition(10, 100) == [(0, 10)]

    def test_exact_multiple(self):
        assert partition(100, 25) == [(0, 25), (25, 25), (50, 25), (75, 25)]

    def test_empty_rejected(self):
        with pytest.raises(PDCError):
            partition(0, 10)

    def test_bad_region_size_rejected(self):
        with pytest.raises(PDCError):
            partition(10, 0)


class TestRegionKey:
    def test_distinct_replicas_distinct_keys(self):
        keys = {
            region_key("o", 1),
            region_key("o", 1, replica="idx"),
            region_key("o", 2),
            region_key("other", 1),
        }
        assert len(keys) == 4
