"""Sorted replicas (§III-D3): build invariants and range search."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import QueryError, QueryTypeError
from repro.query.ast import Condition
from repro.query.executor import QueryEngine
from repro.sorting import SortedReplica
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp
from tests.conftest import make_system

key_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 300),
    elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=32),
)


class TestBuild:
    @given(key_arrays)
    @settings(max_examples=200, deadline=None)
    def test_invariants(self, keys):
        r = SortedReplica.build("k", keys)
        # Ascending.
        assert np.all(np.diff(r.key_values) >= 0)
        # Permutation is a bijection back to original coordinates.
        assert np.array_equal(np.sort(r.permutation), np.arange(keys.size))
        # Values preserved through the permutation.
        assert np.array_equal(keys[r.permutation], r.key_values)

    def test_companions_follow_permutation(self, rng):
        keys = rng.random(500)
        x = rng.random(500)
        r = SortedReplica.build("energy", keys, {"x": x})
        assert np.array_equal(r.companions["x"], x[r.permutation])

    def test_row_alignment_preserved(self, rng):
        """The paper sorts all variables by energy so matching rows stay
        together: (key[i], companion[i]) pairs must be preserved."""
        keys = rng.random(200)
        x = keys * 2.0 + 1.0  # perfectly correlated marker
        r = SortedReplica.build("k", keys, {"x": x})
        assert np.allclose(r.companions["x"], r.key_values * 2.0 + 1.0)

    def test_stable_for_ties(self):
        keys = np.array([1.0, 0.0, 1.0, 0.0])
        r = SortedReplica.build("k", keys)
        assert r.permutation.tolist() == [1, 3, 0, 2]

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(QueryError):
            SortedReplica.build("k", rng.random(10), {"x": rng.random(5)})

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            SortedReplica.build("k", np.array([]))

    def test_nbytes_counts_everything(self, rng):
        keys = rng.random(100)
        r = SortedReplica.build("k", keys, {"x": rng.random(100)})
        assert r.nbytes == keys.nbytes + r.permutation.nbytes + keys.nbytes


def assert_stable_order(keys):
    """The replica's permutation is numpy's stable argsort, bit for bit."""
    r = SortedReplica.build("k", keys)
    want = np.argsort(keys, kind="stable")
    assert r.permutation.dtype == np.int64
    assert np.array_equal(r.permutation, want)
    assert np.array_equal(r.key_values.view(np.uint8), keys[want].view(np.uint8))


def extremes(dtype):
    """A dtype's edge values: ±max, the limits of the integers, and for
    floats ±0.0, the smallest normals and subnormals on both sides."""
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        info = np.finfo(dtype)
        tiny, sub = float(info.tiny), float(info.smallest_subnormal)
        return np.array(
            [0.0, -0.0, float(info.max), -float(info.max), tiny, -tiny, sub, -sub,
             sub * 3, -sub * 3, 1.0, -1.0], dtype=dtype,
        )
    info = np.iinfo(dtype)
    return np.array([info.min, info.min + 1, info.max - 1, info.max, 0, 1], dtype=dtype)


class TestStableOrder:
    """``SortedReplica.build`` sorts packed (key bits, position) words for
    keys of at most 4 bytes and takes the stable argsort for wider ones:
    either way its permutation is ``np.argsort(kind="stable")``."""

    @pytest.mark.parametrize(
        "dtype", [np.float32, np.int8, np.int16, np.int32, np.uint8, np.uint16,
                  np.uint32, np.float64, np.int64],
    )
    def test_heavy_ties_and_extremes(self, dtype, rng):
        edge = extremes(dtype)
        if np.dtype(dtype).kind == "f":
            body = np.round(rng.normal(0.0, 3.0, 3000)).astype(dtype)
        else:
            info = np.iinfo(dtype)
            body = rng.integers(max(info.min, -50), min(info.max, 50), 3000).astype(dtype)
        keys = np.concatenate([body, np.repeat(edge, 40)])
        assert_stable_order(rng.permutation(keys))

    def test_signed_zeros_keep_their_positions(self):
        """−0.0 ties +0.0: both keep position order, as argsort does."""
        keys = np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0], dtype=np.float32)
        assert SortedReplica.build("k", keys).permutation.tolist() == [5, 0, 1, 3, 4, 2]
        assert_stable_order(keys)

    @given(
        hnp.arrays(
            dtype=np.float32, shape=st.integers(1, 400),
            elements=st.floats(allow_nan=False, allow_infinity=False, width=32)
            | st.sampled_from([0.0, -0.0, 1e-45, -1e-45, 2.5]),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_float32_property(self, keys):
        assert_stable_order(keys)

    def test_int64_past_float64_precision(self):
        """Wide keys take the stable argsort: neighbours past 2**53 that a
        float64 copy would merge stay ordered by value."""
        big = 2**53
        keys = np.array(
            [big + 1, big, big + 1, -big - 1, -big, big - 1, 2**63 - 1, -(2**63), big],
            dtype=np.int64,
        )
        assert_stable_order(keys)
        assert SortedReplica.build("k", keys).key_values.tolist() == sorted(keys.tolist())

    @pytest.mark.parametrize("dtype", [">f4", ">i4", "S3", "U1", np.bool_, np.float16])
    def test_other_dtypes_sort_as_argsort(self, dtype, rng):
        """Byte-swapped numbers and strings fall back to the argsort; bool
        and float16 take the packed sort."""
        keys = (rng.integers(-3, 4, 500) * 1000 + rng.integers(0, 3, 500)).astype(dtype)
        assert_stable_order(keys)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32, np.uint32, np.int64])
    def test_one_element(self, dtype):
        r = SortedReplica.build("k", np.array([7], dtype=dtype))
        assert r.permutation.tolist() == [0] and r.permutation.dtype == np.int64

    @pytest.mark.parametrize("dtype", [np.float32, np.int32, np.float64])
    def test_refresh_after_overwrites_equals_a_fresh_build(self, dtype, rng):
        sysm = make_system(replica_staleness_policy="mark_stale", replica_rebuild_threshold=1.0)
        keys = np.round(rng.normal(0.0, 2.0, 6000)).astype(dtype)
        sysm.create_object("k", keys)
        sysm.create_object("c", (rng.random(6000) * 100).astype(dtype))
        sysm.build_sorted_replica("k", ["c"])
        for offset in (0, 1000, 4500):
            sysm.update_object_region("k", offset, np.round(rng.normal(0.0, 2.0, 700)).astype(dtype))
        sysm.update_object_region("c", 2000, (rng.random(300) * 100).astype(dtype))
        assert sysm.replicas["k"].replica.dirty.size == 700 * 3 + 300
        refreshed = sysm.refresh_sorted_replica("k").replica
        fresh = SortedReplica.build(
            "k", sysm.get_object("k").data, {"c": sysm.get_object("c").data}
        )
        assert np.array_equal(refreshed.permutation, fresh.permutation)
        assert np.array_equal(
            refreshed.permutation, np.argsort(sysm.get_object("k").data, kind="stable")
        )
        assert np.array_equal(refreshed.key_values, fresh.key_values)
        assert np.array_equal(refreshed.companions["c"], fresh.companions["c"])


class TestSearchRange:
    @given(
        key_arrays,
        st.floats(min_value=-1e3, max_value=1e3),
        st.floats(min_value=-1e3, max_value=1e3),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_run_matches_mask(self, keys, a, b, lc, hc):
        lo, hi = min(a, b), max(a, b)
        r = SortedReplica.build("k", keys)
        start, stop = r.search_range(lo, hi, lo_closed=lc, hi_closed=hc)
        in_lo = (r.key_values >= lo) if lc else (r.key_values > lo)
        in_hi = (r.key_values <= hi) if hc else (r.key_values < hi)
        truth = np.flatnonzero(in_lo & in_hi)
        got = np.arange(start, stop)
        assert np.array_equal(got, truth)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
    def test_key_typed_bounds_searched_in_place_others_refused(self, rng, dtype):
        """A bound that is a value of the key dtype — what the query gate
        hands every evaluator — gives numpy's own search over the keys as
        they are; any other bound (off the float32 grid, fractional or
        infinite on integer keys, beyond the dtype's range, NaN) is refused,
        never compared under a second rule, and no cast warning escapes."""
        keys = np.concatenate(
            [np.round(rng.normal(0.0, 3.0, 2000) * 4) / 4, [2.0] * 5, [-3.0] * 5]
        ).astype(dtype)
        r = SortedReplica.build("k", keys)
        is_float = np.issubdtype(dtype, np.floating)
        typed = [2.0, -3.0, float(r.key_values[700]), 40.0, -40.0]
        refused = [np.nan]
        (typed if dtype is np.float64 else refused).extend([1e300, -1e300])
        if is_float:
            typed += [float(dtype(2.1)), 2.5, -7.75, np.inf, -np.inf]
        else:
            refused += [2.5, -7.75, np.inf, -np.inf, 3e9, -3e9]
        if dtype is np.float32:
            refused += [2.1, -0.3]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lo, hi in itertools.product(typed, repeat=2):
                for lc, hc in itertools.product((True, False), repeat=2):
                    start = int(np.searchsorted(r.key_values, dtype(lo), side="left" if lc else "right"))
                    stop = int(np.searchsorted(r.key_values, dtype(hi), side="right" if hc else "left"))
                    assert r.search_range(lo, hi, lc, hc) == (start, max(start, stop)), (
                        lo, hi, lc, hc,
                    )
            for bad in refused:
                for lo, hi in ((bad, None), (None, bad), (2.0, bad), (bad, 2.0)):
                    with pytest.raises(QueryTypeError):
                        r.search_range(lo, hi)

    def test_search_does_not_copy_the_keys(self, rng, peak_alloc):
        """A search never casts the 4 MiB of float32 keys to float64 (what
        numpy does when handed a Python float): not for a bound on the key
        dtype's grid, and not for an off-grid ``DOUBLE`` bound driven through
        the engine on PDC-SH — the gate has typed it before the replica sees
        it."""
        keys = rng.random(1 << 20).astype(np.float32)
        r = SortedReplica.build("k", keys)
        lo, hi = float(np.float32(0.25)), float(np.float32(0.26))
        assert peak_alloc(lambda: r.search_range(lo, hi, False, False)) < 64 << 10

        sysm = make_system(region_size_bytes=1 << 18)
        sysm.create_object("k", keys)
        sysm.build_sorted_replica("k", [])
        engine = QueryEngine(sysm)
        engine.execute(  # first use imports lazily
            Condition("k", QueryOp.LT, PDCType.DOUBLE, 0.0001), strategy=Strategy.SORT_HIST
        )
        node = Condition("k", QueryOp.GT, PDCType.DOUBLE, 0.9999)
        out = []
        peak = peak_alloc(lambda: out.append(
            engine.execute(node, strategy=Strategy.SORT_HIST, want_selection=False)
        ))
        assert out[0].nhits == int((keys > 0.9999).sum())
        assert peak < 1 << 20

    def test_unbounded_sides(self, rng):
        keys = rng.random(100)
        r = SortedReplica.build("k", keys)
        assert r.search_range(None, None) == (0, 100)
        start, stop = r.search_range(0.5, None)
        assert stop == 100
        assert np.all(r.key_values[start:] >= 0.5)

    def test_empty_run(self, rng):
        r = SortedReplica.build("k", rng.random(50))
        start, stop = r.search_range(5.0, 6.0)
        assert start == stop

    def test_original_coords_of_run(self, rng):
        keys = rng.random(200)
        r = SortedReplica.build("k", keys)
        start, stop = r.search_range(0.25, 0.75)
        coords = r.original_coords(start, stop)
        assert set(coords.tolist()) == set(
            np.flatnonzero((keys >= 0.25) & (keys <= 0.75)).tolist()
        )

    def test_bad_run_rejected(self, rng):
        r = SortedReplica.build("k", rng.random(10))
        with pytest.raises(QueryError):
            r.original_coords(5, 3)
        with pytest.raises(QueryError):
            r.original_coords(0, 11)

    def test_companion_slice(self, rng):
        keys = rng.random(100)
        x = rng.random(100)
        r = SortedReplica.build("k", keys, {"x": x})
        start, stop = r.search_range(0.4, 0.6)
        assert np.array_equal(r.companion_slice("x", start, stop), x[r.permutation][start:stop])
        assert np.array_equal(r.companion_slice("k", start, stop), r.key_values[start:stop])

    def test_unknown_companion_rejected(self, rng):
        r = SortedReplica.build("k", rng.random(10))
        with pytest.raises(QueryError):
            r.companion_slice("nope", 0, 1)
