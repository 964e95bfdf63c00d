"""Property tests (hypothesis): delta-maintained derived state equals a
from-scratch rebuild for *any* write pattern — especially the edge
cases: offsets at ``region_elements - 1``, spans covering the tail
region, and dtype-narrowing payloads."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.index import ObjectIndex
from repro.ingest.maintain import INDEX_PRECISION
from tests.conftest import assert_payload_is_a_prefix_view, make_system

N = 1 << 12          # object elements
REGION = 1 << 9      # 512 f32 per region at region_size_bytes=1<<11
N_REGIONS = N // REGION


def fresh_system():
    sysm = make_system(region_size_bytes=1 << 11)
    rng = np.random.default_rng(12345)
    sysm.create_object("obj", rng.gamma(2.0, 0.7, N).astype(np.float32))
    sysm.build_index("obj")
    return sysm


def payload(seed: int, size: int, dtype):
    """Deterministic write payload; float64 payloads exercise the
    dtype-narrowing path (cast into the float32 object)."""
    return np.random.default_rng(seed).gamma(2.0, 0.7, size).astype(dtype)


# One write: (offset, size, dtype-seed).  Offsets mix explicit edge
# categories with arbitrary positions; sizes can cross region
# boundaries and cover the tail region.
writes_strategy = st.lists(
    st.tuples(
        st.one_of(
            st.just(REGION - 1),            # last element of region 0
            st.just(2 * REGION - 1),        # a mid-object region boundary
            st.just(N - REGION),            # exactly the tail region
            st.just(N - 1),                 # last element of the object
            st.integers(min_value=0, max_value=N - 1),
        ),
        st.integers(min_value=1, max_value=2 * REGION),
        st.integers(min_value=0, max_value=2 ** 20),
        st.sampled_from([np.float32, np.float64]),
    ),
    min_size=1,
    max_size=5,
)


# Appends before the overwrites: the object starts with no spare capacity
# and a full tail, so the first append reallocates and opens a region;
# later ones land in the capacity it grew (n/16 elements) or cross it.
appends_strategy = st.lists(
    st.tuples(
        st.one_of(
            st.integers(min_value=1, max_value=2 * REGION + 1),
            st.just(N // 16 + 1),           # one past the grown capacity
        ),
        st.integers(min_value=0, max_value=2 ** 20),
    ),
    max_size=3,
)


def apply_appends(sysm, appends, maintenance):
    """Append each ``(size, seed)``; returns the appended payload."""
    grown = []
    for size, seed in appends:
        values = payload(seed, size, np.float32)
        sysm.append_to_object("obj", values, maintenance=maintenance)
        grown.append(values)
    return np.concatenate(grown) if grown else np.zeros(0, dtype=np.float32)


def apply_writes(sysm, writes, maintenance):
    for offset, size, seed, dtype in writes:
        size = min(size, N - offset)  # clamp to the domain
        sysm.update_object_region(
            "obj", offset, payload(seed, size, dtype),
            maintenance=maintenance,
        )


def assert_matches_rebuild(sysm):
    """Delta-maintained state must match a from-scratch rebuild of the
    same payload: exact min/max, equivalent histograms, and (after
    compaction) bit-identical bitmaps and query hit-sets."""
    obj = sysm.get_object("obj")
    data = obj.data
    for rid in range(obj.n_regions):
        lo = rid * REGION
        span = data[lo : lo + REGION]
        assert obj.rmin[rid] == float(span.min()), rid
        assert obj.rmax[rid] == float(span.max()), rid
        from repro.histogram.mergeable import MergeableHistogram

        rebuilt = MergeableHistogram.from_data_width(
            span.astype(np.float64),
            obj.meta.histograms.view(rid).bin_width,
        )
        assert obj.meta.histograms.view(rid).equivalent(rebuilt), rid
        # Fold any delta segments: compaction must land exactly on the
        # from-scratch bitmap (deterministic build → byte-identical).
        if obj.indexes.delta[rid]:
            sysm.compact_region_index("obj", rid)
        _, (expect,) = ObjectIndex.build(span, [span.size], INDEX_PRECISION)
        assert np.array_equal(
            sysm.pfs.stat("/pdc/index/obj").chunks[rid], expect
        ), rid


class TestDeltaMaintenanceProperties:
    @settings(max_examples=30, deadline=None)
    @given(writes=writes_strategy, appends=appends_strategy)
    def test_any_write_pattern_matches_rebuild(self, writes, appends):
        sysm = fresh_system()
        expect = np.concatenate(
            [sysm.get_object("obj").data.copy(),
             apply_appends(sysm, appends, maintenance="delta")]
        )
        apply_writes(sysm, writes, maintenance="delta")
        for offset, size, seed, dtype in writes:
            size = min(size, N - offset)
            expect[offset : offset + size] = payload(seed, size, dtype)
        obj = sysm.get_object("obj")
        assert np.array_equal(obj.data, expect)
        assert_payload_is_a_prefix_view(obj)
        assert_matches_rebuild(sysm)

    @settings(max_examples=15, deadline=None)
    @given(writes=writes_strategy)
    def test_hit_sets_identical_across_modes(self, writes):
        """The observable bitmap hit-set: an indexed range query over the
        delta-maintained object returns exactly the coordinates a
        rebuild-mode twin returns."""
        from repro.query.ast import Condition
        from repro.query.executor import QueryEngine
        from repro.strategies import Strategy
        from repro.types import PDCType, QueryOp

        sys_d = fresh_system()
        sys_r = fresh_system()
        apply_writes(sys_d, writes, maintenance="delta")
        apply_writes(sys_r, writes, maintenance="rebuild")
        node = Condition("obj", QueryOp.GT, PDCType.FLOAT, 2.0)
        rd = QueryEngine(sys_d).execute(node, strategy=Strategy.HIST_INDEX)
        rr = QueryEngine(sys_r).execute(node, strategy=Strategy.HIST_INDEX)
        assert rd.nhits == rr.nhits
        assert np.array_equal(rd.selection.coords, rr.selection.coords)
        truth = np.flatnonzero(sys_d.get_object("obj").data > np.float32(2.0))
        assert np.array_equal(rd.selection.coords, truth)


class TestExplicitEdgeCases:
    """The issue's named edges, pinned deterministically (hypothesis
    covers them too, but these never rotate out of the corpus)."""

    def test_write_at_last_element_of_region(self):
        sysm = fresh_system()
        sysm.update_object_region(
            "obj", REGION - 1, np.full(2, 99.0, dtype=np.float32),
            maintenance="delta",
        )
        assert sysm.last_write_stats["hist_merges"] == 2  # both regions
        assert_matches_rebuild(sysm)

    def test_span_covering_tail_region(self):
        sysm = fresh_system()
        sysm.update_object_region(
            "obj", N - REGION, np.full(REGION, 0.5, dtype=np.float32),
            maintenance="delta",
        )
        obj = sysm.get_object("obj")
        assert obj.rmin[-1] == obj.rmax[-1] == 0.5
        assert_matches_rebuild(sysm)

    def test_dtype_narrowing_payload(self):
        sysm = fresh_system()
        vals64 = np.array([1.000000001, 2.999999999, 7.5], dtype=np.float64)
        sysm.update_object_region("obj", 10, vals64, maintenance="delta")
        obj = sysm.get_object("obj")
        # The payload was narrowed to the object dtype on write; derived
        # state must describe the *stored* (narrowed) values.
        assert np.array_equal(
            obj.data[10:13], vals64.astype(np.float32)
        )
        assert_matches_rebuild(sysm)

    def test_far_value_onto_a_tiny_grid_rebuilds(self):
        """A tail region holding 0.0 and the smallest normal float32 gets
        a histogram width near 1e-40; patching a 1.0 onto that grid asked
        for ~1e40 bins (a bare ValueError).  It is rebuilt instead, and
        answers as a rebuild-mode twin does."""
        sysm = make_system(region_size_bytes=1 << 11)
        sysm.create_object("obj", np.zeros(REGION, dtype=np.float32))
        sysm.append_to_object("obj", np.zeros(1, dtype=np.float32), maintenance="rebuild")
        sysm.append_to_object(
            "obj", np.full(79, np.finfo(np.float32).tiny, dtype=np.float32),
            maintenance="rebuild",
        )
        table = sysm.get_object("obj").meta.histograms
        tail = table.view(table.n_regions - 1)
        assert not tail.grid_holds(np.ones(1))
        sysm.append_to_object("obj", np.ones(1, dtype=np.float32), maintenance="delta")
        assert sysm.last_write_stats["hist_rebuilds"] == 1
        obj = sysm.get_object("obj")
        assert obj.rmax[-1] == 1.0 and table.view(table.n_regions - 1).total == 81

    def test_append_then_overwrite_new_tail(self):
        sysm = fresh_system()
        rng = np.random.default_rng(3)
        sysm.append_to_object(
            "obj", rng.gamma(2.0, 0.7, REGION + 7).astype(np.float32),
            maintenance="delta",
        )
        sysm.update_object_region(
            "obj", N + REGION, np.full(7, 42.0, dtype=np.float32),
            maintenance="delta",
        )
        obj = sysm.get_object("obj")
        assert obj.n_elements == N + REGION + 7
        data = obj.data
        for rid in range(obj.n_regions):
            lo, cnt = int(obj.offsets[rid]), int(obj.counts[rid])
            span = data[lo : lo + cnt]
            assert obj.rmin[rid] == float(span.min())
            assert obj.rmax[rid] == float(span.max())
