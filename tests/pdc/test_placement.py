"""Failover re-assignment of region ids (round-robin over survivors)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PDCError
from repro.pdc.placement import assign_region_ids

ids_strategy = st.sets(st.integers(0, 200), max_size=60).map(
    lambda s: np.asarray(sorted(s), dtype=np.int64)
)


class TestRoundRobin:
    def test_modulo_mapping(self):
        shares = assign_region_ids(np.arange(7), 3)
        assert [list(s) for s in shares] == [[0, 3, 6], [1, 4], [2, 5]]

    @given(ids_strategy, st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    def test_every_region_assigned_exactly_once(self, ids, n_targets):
        shares = assign_region_ids(ids, n_targets)
        assert len(shares) == n_targets
        assert sorted(int(r) for share in shares for r in share) == list(ids)
        sizes = [len(share) for share in shares]
        assert max(sizes) - min(sizes) <= 1
        assert all(list(share) == sorted(share) for share in shares)

    def test_zero_targets_rejected(self):
        with pytest.raises(PDCError):
            assign_region_ids(np.arange(3), 0)
