"""Global histogram: the merge of an object's histogram table, kept by
writes; region elimination, which reads ``StoredObject.rmin``/``rmax``
and not the global histogram."""

import pickle

import numpy as np
import pytest

from repro.errors import QueryError
from repro.histogram.global_hist import HistogramTable
from repro.histogram.mergeable import MergeableHistogram
from repro.interval import Interval
from repro.query.planner import surviving_regions
from repro.types import QueryOp
from tests.conftest import assert_same_histogram, make_system


@pytest.fixture
def regions(rng):
    """Four regions with disjoint-ish value ranges: 0-1, 1-2, 2-3, 3-4."""
    return {i: rng.random(2000) + i for i in range(4)}


@pytest.fixture
def table(regions):
    table = HistogramTable.build(
        np.concatenate(list(regions.values())), np.full(4, 2000), np.arange(4), 32
    )
    table.merge()
    return table


@pytest.fixture
def ghist(table):
    return table.global_histogram


class TestBuild:
    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            MergeableHistogram.merge_many([])

    def test_total_and_region_count(self, ghist, table):
        assert ghist.merged.total == 8000
        assert table.n_regions == 4 and int(table.n_bins.sum()) == table.counts.size

    def test_region_minmax_recorded(self, regions):
        """The extrema region elimination reads live on the stored object,
        equal to each region histogram's: the global histogram keeps no
        copy."""
        obj = make_system(region_size_bytes=2000 * 8).create_object(
            "v", np.concatenate(list(regions.values()))
        )
        for rid, data in regions.items():
            assert obj.rmin[rid] == data.min() and obj.rmax[rid] == data.max()
            source = obj.meta.histograms.view(rid)
            assert (source.data_min, source.data_max) == (obj.rmin[rid], obj.rmax[rid])


class TestOperandReuse:
    """``HistogramTable.put`` at an unchanged merged width trades only the
    written rows in the global counts, and is field for field
    ``merge_many`` of the rows."""

    @pytest.fixture
    def hists(self, rng):
        """Region 2 spans 0-64 and alone carries the merged width; the
        others span one unit each on grids 64 times finer."""
        spans = {0: 1.0, 1: 1.0, 2: 64.0, 3: 1.0}
        return {
            rid: MergeableHistogram.from_data(rng.random(2000) * span + rid, n_bins=32)
            for rid, span in spans.items()
        }

    @staticmethod
    def put(hists, rid, h):
        """The table of ``hists`` with row ``rid`` put to ``h``; ``hists``
        follows."""
        table = HistogramTable.of(list(hists.values()), [0] * len(hists))
        table.merge()
        hists[rid] = h
        table.put([rid], HistogramTable.of([h], [0]))
        assert_same_histogram(
            table.global_histogram.merged, MergeableHistogram.merge_many(list(hists.values()))
        )
        for i, want in hists.items():
            assert_same_histogram(table.view(i), want)
        return table

    def test_unchanged_regions_lend_their_operands(self, hists, rng, monkeypatch):
        merges = []
        real = HistogramTable.merge
        monkeypatch.setattr(HistogramTable, "merge", lambda t: merges.append(t) or real(t))
        before = HistogramTable.of(list(hists.values()), [0] * 4)
        table = self.put(hists, 1, MergeableHistogram.from_data(rng.random(500) + 7.0, n_bins=32))
        assert table.global_histogram.merged.bin_width == hists[2].bin_width
        assert len(merges) == 1  # the first, none by the put
        # The other rows' slices stay where they were.
        assert np.array_equal(table.offset[[0, 2, 3]], before.offset[[0, 2, 3]])

    def test_overwriting_the_width_carrying_region_narrows_the_grid(self, hists, rng):
        wide = hists[2].bin_width
        table = self.put(hists, 2, MergeableHistogram.from_data(rng.random(2000) + 2.0, n_bins=32))
        assert table.global_histogram.merged.bin_width < wide

    def test_a_coarser_newcomer_widens_the_grid(self, hists, rng):
        wide = hists[2].bin_width
        table = self.put(hists, 0, MergeableHistogram.from_data(rng.random(2000) * 512.0, n_bins=32))
        assert table.global_histogram.merged.bin_width > wide

    def test_region_opening_append(self, hists, rng):
        h = MergeableHistogram.from_data(rng.random(300) + 100.0, n_bins=32)
        table = self.put(hists, 4, h)
        assert table.n_regions == 5
        assert table.global_histogram.merged.data_max == h.data_max

    def test_a_checkpoint_carries_no_operands(self, hists, rng):
        """Pickled (the metadata checkpoint) the table carries its rows and
        the merged histogram, no coarsened copies; restored, it takes the
        next write like the original."""
        table = HistogramTable.of(list(hists.values()), [0] * 4)
        table.merge()
        restored = pickle.loads(pickle.dumps(table))
        assert list(vars(restored.global_histogram)) == ["merged"]
        h = MergeableHistogram.from_data(rng.random(700) + 3.0, n_bins=32)
        for t in (table, restored):
            t.put([3], HistogramTable.of([h], [0]))
        assert_same_histogram(restored.global_histogram.merged, table.global_histogram.merged)


class TestRegionElimination:
    """``planner.surviving_regions`` over ``StoredObject.rmin``/``rmax`` —
    the one place region extrema meet an interval."""

    @pytest.fixture
    def obj(self, regions):
        """The four regions as one object's four 2000-element regions."""
        system = make_system(region_size_bytes=2000 * 8)
        return system.create_object("v", np.concatenate(list(regions.values())))

    def test_surviving_regions_exact(self, obj):
        # Interval [2.5, 2.6] only lives in region 2.
        survivors, covered, pruned = surviving_regions(obj, Interval(lo=2.5, hi=2.6))
        assert survivors.tolist() == [2] and not covered.any() and pruned == 3

    def test_open_boundary_interval(self, obj):
        survivors, _, _ = surviving_regions(obj, Interval.from_op(QueryOp.GT, 3.0))
        assert 3 in survivors
        assert 0 not in survivors and 1 not in survivors

    def test_nothing_survives_outside_range(self, obj):
        survivors, _, pruned = surviving_regions(obj, Interval(lo=10.0, hi=11.0))
        assert survivors.tolist() == [] and pruned == obj.n_regions

    def test_everything_survives_full_range(self, obj):
        survivors, covered, pruned = surviving_regions(obj, Interval())
        assert survivors.tolist() == [0, 1, 2, 3] and covered.all() and pruned == 0

    def test_eliminated_fraction(self, obj):
        _, _, pruned = surviving_regions(obj, Interval(lo=2.5, hi=2.6))
        assert pruned / obj.n_regions == pytest.approx(0.75)
        assert surviving_regions(obj, Interval())[2] == 0

    def test_elimination_never_drops_hits(self, obj, regions):
        """Any element matching the interval lives in a surviving region,
        and every element of a covered one matches — the exactness the
        executor relies on."""
        for lo in np.linspace(0.0, 3.9, 20):
            iv = Interval(lo=float(lo), hi=float(lo) + 0.05)
            survivors, covered, _ = surviving_regions(obj, iv)
            for rid, data in regions.items():
                if iv.mask(data).any():
                    assert rid in survivors
            for rid in survivors[covered]:
                assert iv.mask(regions[rid]).all()


class TestEstimation:
    def test_bounds_bracket_truth(self, ghist, regions):
        alldata = np.concatenate(list(regions.values()))
        for lo in (0.5, 1.5, 2.5, 3.5):
            iv = Interval(lo=lo, hi=lo + 0.4, lo_closed=False, hi_closed=False)
            lower, upper = ghist.estimate_hits(iv)
            truth = int(iv.mask(alldata).sum())
            assert lower <= truth <= upper

    def test_selectivity_normalized(self, ghist):
        lo, hi = ghist.estimate_selectivity(Interval(lo=0.0, hi=2.0))
        assert 0.0 <= lo <= hi <= 1.0
