"""Global histogram: merge provenance and estimation; region elimination,
which reads ``StoredObject.rmin``/``rmax`` and not the global histogram."""

import pickle

import numpy as np
import pytest

from repro.errors import QueryError
from repro.histogram.global_hist import GlobalHistogram
from repro.histogram.mergeable import MergeableHistogram
from repro.interval import Interval
from repro.query.planner import surviving_regions
from repro.types import QueryOp
from tests.conftest import assert_same_global_histogram, make_system


@pytest.fixture
def regions(rng):
    """Four regions with disjoint-ish value ranges: 0-1, 1-2, 2-3, 3-4."""
    return {i: rng.random(2000) + i for i in range(4)}


@pytest.fixture
def ghist(regions):
    return GlobalHistogram.build(
        {i: MergeableHistogram.from_data(d, n_bins=32) for i, d in regions.items()}
    )


class TestBuild:
    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            GlobalHistogram.build({})

    def test_total_and_region_count(self, ghist):
        assert ghist.merged.total == 8000
        assert list(ghist.operands) == [0, 1, 2, 3]

    def test_region_minmax_recorded(self, regions):
        """The extrema region elimination reads live on the stored object,
        equal to each region histogram's: the global histogram keeps no
        copy."""
        obj = make_system(region_size_bytes=2000 * 8).create_object(
            "v", np.concatenate(list(regions.values()))
        )
        for rid, data in regions.items():
            assert obj.rmin[rid] == data.min() and obj.rmax[rid] == data.max()
            source = obj.meta.regions[rid].histogram
            assert (source.data_min, source.data_max) == (obj.rmin[rid], obj.rmax[rid])


class TestOperandReuse:
    """``build(..., previous=...)`` re-coarsens only what changed and is
    field-for-field the build without ``previous``."""

    @pytest.fixture
    def hists(self, rng):
        """Region 2 spans 0-64 and alone carries the merged width; the
        others span one unit each on grids 64 times finer."""
        spans = {0: 1.0, 1: 1.0, 2: 64.0, 3: 1.0}
        return {
            rid: MergeableHistogram.from_data(rng.random(2000) * span + rid, n_bins=32)
            for rid, span in spans.items()
        }

    def test_unchanged_regions_lend_their_operands(self, hists, rng):
        previous = GlobalHistogram.build(hists)
        assert previous.merged.bin_width == hists[2].bin_width > hists[0].bin_width
        hists[1] = MergeableHistogram.from_data(rng.random(500) + 7.0, n_bins=32)
        rebuilt = GlobalHistogram.build(hists, previous=previous)
        assert_same_global_histogram(rebuilt, GlobalHistogram.build(hists))
        for rid in (0, 2, 3):
            assert rebuilt.operands[rid][1] is previous.operands[rid][1]
        assert rebuilt.operands[1][1] is not previous.operands[1][1]
        assert previous.merged.total == 8000  # the lender is left as it was

    def test_overwriting_the_width_carrying_region_narrows_the_grid(self, hists, rng):
        previous = GlobalHistogram.build(hists)
        hists[2] = MergeableHistogram.from_data(rng.random(2000) + 2.0, n_bins=32)
        rebuilt = GlobalHistogram.build(hists, previous=previous)
        assert rebuilt.merged.bin_width < previous.merged.bin_width
        assert_same_global_histogram(rebuilt, GlobalHistogram.build(hists))
        # Operands coarsened to the old width are of no use on the new grid.
        assert all(c.bin_width == rebuilt.merged.bin_width for _, c in rebuilt.operands.values())

    def test_a_coarser_newcomer_widens_the_grid(self, hists, rng):
        previous = GlobalHistogram.build(hists)
        hists[0] = MergeableHistogram.from_data(rng.random(2000) * 512.0, n_bins=32)
        rebuilt = GlobalHistogram.build(hists, previous=previous)
        assert rebuilt.merged.bin_width > previous.merged.bin_width
        assert_same_global_histogram(rebuilt, GlobalHistogram.build(hists))

    def test_region_opening_append(self, hists, rng):
        previous = GlobalHistogram.build(hists)
        hists[4] = MergeableHistogram.from_data(rng.random(300) + 100.0, n_bins=32)
        rebuilt = GlobalHistogram.build(hists, previous=previous)
        assert_same_global_histogram(rebuilt, GlobalHistogram.build(hists))
        assert list(rebuilt.operands) == [0, 1, 2, 3, 4]
        assert rebuilt.merged.data_max == hists[4].data_max
        assert rebuilt.operands[0][1] is previous.operands[0][1]


    def test_a_removed_region_merges_from_scratch(self, hists):
        previous = GlobalHistogram.build(hists)
        del hists[1]
        rebuilt = GlobalHistogram.build(hists, previous=previous)
        assert_same_global_histogram(rebuilt, GlobalHistogram.build(hists))
        assert rebuilt.merged.total == 6000

    def test_a_checkpoint_carries_no_operands(self, hists, rng):
        """Pickled (the metadata checkpoint) a global histogram is the size
        it was before operands were kept; restored, it lends nothing and
        the next build is still the from-scratch one."""
        restored = pickle.loads(pickle.dumps(GlobalHistogram.build(hists)))
        assert restored.operands == {}
        assert_same_global_histogram(
            GlobalHistogram.build(hists, previous=restored), GlobalHistogram.build(hists)
        )


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
