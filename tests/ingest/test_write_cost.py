"""A write costs what it wrote: an append lands in spare capacity, the
global histogram trades only the written regions' rows, the index file
only their chunks and the object index only their rows — and each result
equals the whole rebuilt (``tests/conftest.py``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bitmap.index import ObjectIndex
from repro.histogram import global_hist
from repro.histogram.global_hist import HistogramTable
from repro.histogram.mergeable import MergeableHistogram
from repro.query.ast import Condition
from repro.query.executor import QueryEngine
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp
from tests.conftest import (
    INDEX_ROWS,
    assert_histograms_fresh,
    assert_index_fresh,
    assert_payload_is_a_prefix_view,
    make_system,
)

REGION = 512  # f32 elements per region at region_size_bytes=1<<11
N = 16 * REGION


def indexed(n=N):
    sysm = make_system(region_size_bytes=1 << 11)
    rng = np.random.default_rng(11)
    sysm.create_object("obj", rng.gamma(2.0, 0.7, n).astype(np.float32))
    sysm.build_index("obj")
    return sysm, sysm.get_object("obj")


def gamma(n, seed=3):
    return np.random.default_rng(seed).gamma(2.0, 0.7, n).astype(np.float32)


def counting(monkeypatch, owner, attr):
    """Replace ``owner.attr`` with a wrapper recording each call's
    ``self`` (or first argument)."""
    calls = []
    real = getattr(owner, attr)

    def spy(*args, **kwargs):
        calls.append(args[0] if args else None)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, spy)
    return calls


class TestAppendIntoCapacity:
    def test_an_append_that_fits_shares_the_previous_payload(self):
        sysm, obj = indexed()
        first = gamma(100)
        sysm.append_to_object("obj", first)  # no spare room: reallocates
        assert obj.buffer.size == (N + 100) + (N + 100) // 16
        previous, buffer = obj.data, obj.buffer
        second = gamma(300, seed=4)
        sysm.append_to_object("obj", second)
        assert obj.buffer is buffer
        assert np.shares_memory(previous, obj.data)
        assert obj.data.size == N + 400
        assert np.array_equal(obj.data[N:], np.concatenate([first, second]))
        assert_payload_is_a_prefix_view(obj)
        # Both PFS files are views of the same payload.
        for path in (obj.file_path, obj.hdf5_path):
            assert np.shares_memory(sysm.pfs.stat(path).data, obj.data)
            assert sysm.pfs.stat(path).n_elements == obj.n_elements

    def test_an_append_past_capacity_reallocates_geometrically(self):
        sysm, obj = indexed()
        sysm.append_to_object("obj", gamma(10))
        room = obj.buffer.size - obj.n_elements
        previous = obj.data
        sysm.append_to_object("obj", gamma(room + 1, seed=5))
        size = N + 10 + room + 1
        assert obj.buffer.size == size + size // 16
        assert not np.shares_memory(previous, obj.data)
        assert np.array_equal(obj.data[: previous.size], previous)

    def test_extents_are_extended_not_repartitioned(self):
        sysm, obj = indexed(N - 100)
        held = obj.counts
        offsets, counts = obj.offsets.copy(), obj.counts.copy()
        affected = sysm.append_to_object("obj", gamma(100 + 2 * REGION + 7))
        assert affected == [15, 16, 17, 18]
        assert obj.offsets[:16].tolist() == offsets.tolist()
        assert obj.offsets[16:].tolist() == [N, N + REGION, N + 2 * REGION]
        assert obj.counts.tolist() == counts[:15].tolist() + [REGION] * 3 + [7]
        assert obj.meta.histograms.n_regions == obj.n_regions
        # An array a reader may hold is replaced, not edited.
        assert held[15] == REGION - 100 and held is not obj.counts

    def test_a_tail_append_replaces_the_counts_array(self):
        """A reader holding ``obj.counts`` keeps the extents it read."""
        sysm, obj = indexed(N - 100)
        held = obj.counts
        assert sysm.append_to_object("obj", gamma(10)) == [15]
        assert held[15] == REGION - 100 and obj.counts[15] == REGION - 90

    def test_a_failed_append_leaves_the_payload_as_it_was(self, monkeypatch):
        sysm, obj = indexed()
        sysm.append_to_object("obj", gamma(10))
        data, buffer = obj.data, obj.buffer

        def boom(*args, **kwargs):
            raise RuntimeError("derive failed")

        monkeypatch.setattr(ObjectIndex, "build", boom)
        with pytest.raises(RuntimeError):
            sysm.append_to_object("obj", gamma(20))
        assert obj.data is data and obj.buffer is buffer
        assert obj.n_elements == N + 10
        assert sysm.pfs.stat(obj.file_path).n_elements == N + 10


class TestGlobalHistogramByChangedRegions:
    @pytest.mark.parametrize("maintenance", ["rebuild", "delta"])
    def test_a_one_region_overwrite_coarsens_at_most_once(self, monkeypatch, maintenance):
        sysm, obj = indexed()
        width = obj.meta.global_histogram.merged.bin_width
        calls = counting(monkeypatch, MergeableHistogram, "coarsened")
        sysm.update_object_region("obj", 3 * REGION + 5, gamma(40), maintenance=maintenance)
        assert obj.meta.global_histogram.merged.bin_width == width
        assert len(calls) <= 1
        assert_histograms_fresh(sysm, obj)

    def test_no_full_merge_at_an_unchanged_width(self, monkeypatch):
        sysm, obj = indexed()
        calls = counting(monkeypatch, MergeableHistogram, "merge_aligned")
        merges = counting(monkeypatch, HistogramTable, "merge")
        # Each put places only the written regions' old and new rows on the
        # merged grid (``_onto``'s first argument is the merged exponent).
        placed = []
        real = global_hist._onto
        monkeypatch.setattr(global_hist, "_onto",
                            lambda e, start, *rest: placed.append(start.size) or real(e, start, *rest))
        sysm.update_object_region("obj", 7, gamma(40), maintenance="delta")
        sysm.append_to_object("obj", gamma(REGION + 3), maintenance="delta")
        assert calls == [] and merges == []
        # The overwrite's region; the two regions the append opened (the
        # tail was full).
        assert placed == [2, 4]
        assert_histograms_fresh(sysm, obj)

    def test_an_overwrite_that_shrinks_the_span(self):
        """The region holding the object's maximum is overwritten with
        small values: the merged grid loses its top bins."""
        sysm, obj = indexed()
        rid = int(np.argmax(obj.rmax))
        top = obj.meta.global_histogram.merged
        sysm.update_object_region(
            "obj", int(obj.offsets[rid]), np.full(REGION, 1.0, dtype=np.float32)
        )
        merged = obj.meta.global_histogram.merged
        assert merged.data_max < top.data_max
        assert merged.start + merged.n_bins * merged.bin_width <= (
            top.start + top.n_bins * top.bin_width
        )
        assert_histograms_fresh(sysm, obj)


class TestIndexFileByRegion:
    def test_a_rewrite_serialises_only_changed_regions(self, monkeypatch):
        sysm, obj = indexed()
        path = f"/pdc/index/{obj.name}"
        before = sysm.pfs.stat(path)
        written = sysm.pfs.bytes_written
        calls = counting(monkeypatch, ObjectIndex, "build")
        sysm.update_object_region("obj", 2 * REGION - 10, gamma(20), maintenance="rebuild")
        after = sysm.pfs.stat(path)
        assert [c.size for c in calls] == [2 * REGION]  # regions 1 and 2, in one build
        assert len(after.chunks) == obj.n_regions
        for rid, chunk in enumerate(after.chunks):
            assert (chunk is before.chunks[rid]) == (rid not in (1, 2)), rid
        # The model still writes the whole file on every rewrite.
        assert sysm.pfs.bytes_written - written == sysm.cost.virtual_bytes(after.nbytes)
        assert_index_fresh(sysm, obj)

    def test_an_append_adds_chunks(self):
        sysm, obj = indexed()
        sysm.append_to_object("obj", gamma(2 * REGION + 1), maintenance="rebuild")
        assert len(sysm.pfs.stat(f"/pdc/index/{obj.name}").chunks) == N // REGION + 3
        assert_index_fresh(sysm, obj)


class TestProbeTableRows:
    def test_an_index_install_never_restacks(self, monkeypatch):
        """Every write builds the bitmaps of the regions it rebuilds, and
        no others: an overwrite its one region, an append the two regions
        it opens, a compaction its one region."""
        sysm, obj = indexed()
        calls = counting(monkeypatch, ObjectIndex, "build")
        sysm.update_object_region("obj", 5, gamma(300) * 4, maintenance="rebuild")
        sysm.append_to_object("obj", gamma(REGION + 9), maintenance="rebuild")
        sysm.update_object_region("obj", REGION + 1, gamma(9), maintenance="delta")
        sysm.compact_region_index("obj", 1)
        res = QueryEngine(sysm).execute(
            Condition("obj", QueryOp.GT, PDCType.FLOAT, 2.0), strategy=Strategy.HIST_INDEX
        )
        assert [c.size for c in calls] == [REGION, REGION + 9, REGION]
        assert res.nhits == int((obj.data > np.float32(2.0)).sum())
        assert_index_fresh(sysm, obj)

    def test_put_widens_appends_and_narrows(self, rng):
        """Rows widen for a region with more bins than any, grow for a
        region past the last, and keep their width for one with fewer;
        each region's positions land at its offset (3000 apart here)."""
        regions = [rng.gamma(2.0, 0.7, 300), rng.uniform(2.0, 2.3, 300)]
        table, _ = ObjectIndex.build(np.concatenate(regions), [300, 300])
        offsets = np.arange(3) * 3000
        for rid, values in ((1, rng.uniform(-5.0, 5.0, 3000)), (2, regions[0]),
                            (0, np.full(40, 2.15))):
            part, _ = ObjectIndex.build(values, [values.size])
            assert rid != 1 or part.bin_min.shape[1] > table.bin_min.shape[1]
            regions[rid:rid + 1] = [values]
            width = table.bin_min.shape[1]
            table.put([rid], part, offsets, 9000)
            counts = [r.size for r in regions]
            fresh, _ = ObjectIndex.build(np.concatenate(regions), counts)
            k = fresh.bin_min.shape[1]
            assert table.bin_min.shape == (len(regions), max(width, k))
            for name, pad in INDEX_ROWS:
                got = getattr(table, name)
                assert np.array_equal(got[:, :k], getattr(fresh, name)), name
                assert (got[:, k:] == pad).all(), name
            for name in ("words", "nbytes", "header_bytes", "n_elements", "delta"):
                assert np.array_equal(getattr(table, name), getattr(fresh, name)), name
            for r, (start, n) in enumerate(zip(np.cumsum(counts) - counts, counts)):
                at = offsets[r]
                assert np.array_equal(table.positions[at : at + n], fresh.positions[start : start + n])
