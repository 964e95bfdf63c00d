"""PDC-HI answers its first condition from the probed bins.

An object's bitmap index keeps each region's positions in bin order (one
store per object, region ``rid``'s at ``offsets[rid]``); the bins an interval
overlaps are one run of them, whose full bins' members are hits and whose
two boundary bins' members are checked on the raw values
(``repro.query.kernels.index_coords``).  What holds it:

* index ≡ mask ≡ numpy: over float32, float64, int32 and int64 around
  ±2**53; open, closed and one-sided bounds on bin edges and on data values
  and one ulp beside them; region constraints, hyperslabs and covered
  regions; after overwrites and appends under delta and rebuild
  maintenance and after compaction (hypothesis; fixed seed in tier-1,
  random under the long profile);
* the kernel choice: a current region whose overlapped bins hold fewer
  than ``REPLICA_RUN_SHARE`` of its elements never reaches ``mask_coords``;
  a wider one, a region with uncompacted delta segments, one whose index
  lags its payload and a 64-bit integer object do, whatever they were
  before;
* the store holds each region's positions once, narrow, outside the index
  file.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.binning import sig_digit_edges
from repro.bitmap.index import RegionBitmapIndex
from repro.errors import QueryError
from repro.ingest.maintain import INDEX_PRECISION
from repro.interval import Interval
from repro.query import kernels
from repro.query.ast import Condition, combine_and
from repro.query.executor import QueryEngine
from repro.query.planner import surviving_regions
from repro.query.region_constraint import HyperSlab
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp

from tests.conftest import assert_index_fresh, make_system

N = 1536
TYPES = {
    "float32": PDCType.FLOAT, "float64": PDCType.DOUBLE, "int32": PDCType.INT,
    "int64": PDCType.INT64,
}


def values(rng, dtype, n):
    """Values with ties: floats partly on the precision-2 bin grid, int64
    straddling both ends of the float64-exact range."""
    if dtype == "int64":
        centre = rng.choice([2**53, -(2**53)], n)
        return (centre + rng.integers(-40, 41, n)).astype(np.int64)
    if dtype == "int32":
        return rng.integers(-300, 300, n).astype(np.int32)
    v = rng.gamma(2.0, 0.7, n)
    grid = rng.random(n) < 0.3
    v[grid] = np.round(v[grid], 1)
    return v.astype(dtype)


def deployment(dtype, seed, ordered=False):
    """``v`` over 8-12 regions, indexed; ``ordered``: ascending values, so
    a window covers whole regions."""
    rng = np.random.default_rng(seed)
    sysm = make_system(region_size_bytes=512)
    data = values(rng, dtype, N)
    sysm.create_object("v", np.sort(data) if ordered else data)
    sysm.build_index("v")
    return sysm, rng


def beside(x, dtype, step):
    """The neighbour of ``x`` one ulp (one unit for integers) away."""
    if np.dtype(dtype).kind == "f":
        return float(np.nextafter(np.asarray(x, dtype), np.asarray(step * np.inf, dtype)))
    return int(x) + step


def bound(rng, obj, dtype):
    """A bound on a bin edge, on a stored value, or one ulp beside one."""
    kind = rng.integers(0, 4)
    if kind == 0:
        rid = int(rng.integers(0, obj.n_regions))
        region = obj.data[obj.offsets[rid] : obj.offsets[rid] + obj.counts[rid]]
        edges = sig_digit_edges(float(region.min()), float(region.max()), INDEX_PRECISION)
        b = float(edges[rng.integers(0, edges.size)])
        if np.dtype(dtype).kind in "iu":
            b = float(np.clip(np.round(b), -(2**53), 2**53))
        return b
    x = obj.data[int(rng.integers(0, obj.n_elements))]
    b = x.item() if kind == 1 else beside(x, dtype, (-1, 1)[kind - 2])
    if np.dtype(dtype).kind in "iu":
        b = int(np.clip(b, -(2**53), 2**53))
    return b


def interval(rng, obj, dtype):
    """A typed interval: closed, open or one-sided; None when empty or
    refused (an int64 bound of magnitude 2**53)."""
    lo, hi = sorted((bound(rng, obj, dtype), bound(rng, obj, dtype)))
    side = rng.integers(0, 4)
    lo, hi = (None, hi) if side == 0 else (lo, None) if side == 1 else (lo, hi)
    try:
        return Interval(lo, hi, bool(rng.random() < 0.5), bool(rng.random() < 0.5)).typed(
            TYPES[dtype]
        )
    except QueryError:
        return None


def truth(data, iv, constraint):
    """NumPy's answer; an integral object's bounds compare as integers."""
    lo, hi = (b if b is None or data.dtype.kind == "f" else int(b) for b in (iv.lo, iv.hi))
    keep = np.ones(data.size, dtype=bool)
    if lo is not None:
        keep &= (data >= lo) if iv.lo_closed else (data > lo)
    if hi is not None:
        keep &= (data <= hi) if iv.hi_closed else (data < hi)
    coords = np.flatnonzero(keep)
    return coords[(coords >= constraint[0]) & (coords < constraint[1])]


def write(sysm, rng, dtype):
    """An overwrite, an append or a compaction, in either maintenance."""
    obj = sysm.get_object("v")
    maintenance = ("delta", "rebuild")[int(rng.integers(0, 2))]
    kind = rng.integers(0, 3)
    if kind == 0:
        n = int(rng.integers(1, 200))
        off = int(rng.integers(0, obj.n_elements - n))
        sysm.update_object_region("v", off, values(rng, dtype, n), maintenance=maintenance)
    elif kind == 1:
        sysm.append_to_object("v", values(rng, dtype, int(rng.integers(1, 300))),
                              maintenance=maintenance)
    else:
        sysm.compact_region_index("v", int(rng.integers(0, obj.n_regions)))


class TestIndexEqualsMask:
    @settings(max_examples=12)
    @given(
        dtype=st.sampled_from(sorted(TYPES)),
        seed=st.integers(0, 2**31),
        writes=st.integers(0, 4),
    )
    def test_index_equals_mask_equals_numpy(self, dtype, seed, writes):
        sysm, rng = deployment(dtype, seed)
        for step in range(writes + 1):
            if step:
                write(sysm, rng, dtype)
            obj = sysm.get_object("v")
            assert_index_fresh(sysm, obj)
            for _ in range(12):
                iv = interval(rng, obj, dtype)
                if iv is None:
                    continue
                constraint = (0, obj.n_elements)
                if rng.random() < 0.4:
                    a, b = sorted(rng.integers(0, obj.n_elements + 1, 2).tolist())
                    constraint = (a, max(b, a + 1))
                regions, covered, _ = surviving_regions(obj, iv, constraint)
                got = kernels.index_coords(obj, iv, constraint, regions, covered)
                want = kernels.mask_coords(obj, iv, constraint, regions, covered)
                assert np.array_equal(got, want), (iv, constraint)
                assert np.array_equal(got, truth(obj.data, iv, constraint)), (iv, constraint)

    @pytest.mark.parametrize("dtype", sorted(TYPES))
    def test_engine_with_hyperslabs_and_covered_regions(self, dtype):
        """Through the engine: PDC-HI equals numpy under a flat constraint,
        a 2-D hyperslab and a window covering whole regions."""
        sysm, rng = deployment(dtype, 5, ordered=True)
        sysm.update_object_region("v", 300, np.sort(values(rng, dtype, 150)))
        obj, engine = sysm.get_object("v"), QueryEngine(sysm)
        data = obj.data.copy()
        lo, hi = (np.sort(data)[[data.size // 5, 4 * data.size // 5]]).tolist()
        if np.dtype(dtype).kind in "iu":  # the bounds an int64 object accepts
            lo, hi = (int(np.clip(b, 1 - 2**53, 2**53 - 1)) for b in (lo, hi))
        pdc_type = TYPES[dtype]
        node = combine_and(Condition("v", QueryOp.GTE, pdc_type, lo),
                           Condition("v", QueryOp.LT, pdc_type, hi))
        iv = Interval(lo, hi, True, False).typed(pdc_type)
        rows = obj.n_elements // 32
        for constraint, flat in (
            (None, (0, obj.n_elements)),
            ((100, 1000), (100, 1000)),
            (HyperSlab((rows, 32), ((2, rows - 3), (4, 20))), None),
        ):
            res = engine.execute(node, strategy=Strategy.HIST_INDEX,
                                 region_constraint=constraint)
            want = truth(data, iv, (0, data.size))
            if flat is None:
                want = want[constraint.contains_flat(want)]
            else:
                want = want[(want >= flat[0]) & (want < flat[1])]
            assert np.array_equal(res.selection.coords, want), constraint
        regions, covered, _ = surviving_regions(obj, iv)
        assert covered.any() and not covered.all()


class TestKernelChoice:
    """Spies on ``mask_coords``: which regions the index answers."""

    @pytest.fixture
    def masked(self, monkeypatch):
        calls = []
        real = kernels.mask_coords

        def spy(obj, interval, constraint, region_ids, covered):
            calls.append(region_ids[~covered].tolist())
            return real(obj, interval, constraint, region_ids, covered)

        monkeypatch.setattr(kernels, "mask_coords", spy)
        return calls

    @staticmethod
    def answer(obj, iv):
        regions, covered, _ = surviving_regions(obj, iv)
        got = kernels.index_coords(obj, iv, (0, obj.n_elements), regions, covered)
        assert np.array_equal(got, np.flatnonzero(iv.mask(obj.data)))
        return regions[~covered]

    @staticmethod
    def touched_share(obj, iv, rid):
        ix = obj.indexes
        overlap = iv.overlaps_range_arrays(ix.bin_min[rid], ix.bin_max[rid])
        return ix.bin_counts[rid][overlap].sum() / obj.counts[rid]

    def test_narrow_regions_skip_the_mask_and_wide_ones_take_it(self, masked):
        sysm, _ = deployment("float32", 1)
        obj = sysm.get_object("v")
        narrow, wide = Interval(1.0, 1.05), Interval(0.5, 2.5)
        straddling = self.answer(obj, narrow)
        assert straddling.size and all(
            self.touched_share(obj, narrow, r) < kernels.REPLICA_RUN_SHARE for r in straddling
        )
        assert not set(straddling.tolist()) & {r for call in masked for r in call}
        masked.clear()
        straddling = self.answer(obj, wide)
        at_or_above = [r for r in straddling.tolist()
                       if self.touched_share(obj, wide, r) >= kernels.REPLICA_RUN_SHARE]
        assert at_or_above and set(at_or_above) <= {r for call in masked for r in call}

    def test_currency_is_read_from_live_state(self, masked):
        """A delta write makes its region masked until compaction; an
        append makes the tail's index lag its payload; a rebuild install
        answers through the new index at once."""
        sysm, rng = deployment("float32", 2)
        obj, iv = sysm.get_object("v"), Interval(1.0, 1.05)

        def masked_now():
            masked.clear()
            self.answer(obj, iv)
            return {r for call in masked for r in call}

        assert masked_now() == set()
        sysm.update_object_region("v", int(obj.offsets[3]) + 5,
                                  np.full(7, 1.02, np.float32), maintenance="delta")
        assert 3 in masked_now()
        sysm.compact_region_index("v", 3)
        assert 3 not in masked_now()
        tail_values = np.repeat(np.float32([1.03, 2.0]), [6, 54])  # overlapped share 0.1
        sysm.append_to_object("v", tail_values, maintenance="rebuild")
        tail = obj.n_regions - 1
        assert tail not in masked_now()
        sysm.append_to_object("v", np.full(5, 1.01, np.float32), maintenance="delta")
        assert obj.n_regions - 1 == tail and tail in masked_now()
        # The index lags the payload by the appended elements: masked on
        # that alone, with the delta count cleared.
        obj.indexes.delta[tail] = 0
        assert obj.indexes.n_elements[tail] < obj.counts[tail]
        assert tail in masked_now()
        sysm.update_object_region("v", int(obj.offsets[tail]), np.full(3, 1.04, np.float32),
                                  maintenance="rebuild")
        assert tail not in masked_now()

    def test_64_bit_integers_are_masked(self, masked):
        sysm, _ = deployment("int64", 3)
        obj = sysm.get_object("v")
        iv = Interval(float(2**53 - 10), float(2**53 + 10))
        assert set(self.answer(obj, iv).tolist()) <= {r for call in masked for r in call}


class TestPositionStore:
    def test_one_narrow_copy_outside_the_index_file(self):
        sysm = make_system(region_size_bytes=4096 * 4)
        data = np.random.default_rng(0).gamma(2.0, 0.7, 4096 * 5 + 100).astype(np.float32)
        sysm.create_object("e", data)
        sysm.build_index("e")
        obj = sysm.get_object("e")
        assert obj.indexes.positions.dtype == np.uint16
        assert obj.indexes.positions.size == obj.buffer.size
        assert_index_fresh(sysm, obj)
        for rid, chunk in enumerate(sysm.pfs.stat("/pdc/index/e").chunks):
            # The index file does not carry them: its size and format stand.
            assert obj.indexes.nbytes[rid] == RegionBitmapIndex.from_bytes(chunk).nbytes
        before = obj.indexes.positions
        sysm.append_to_object("e", data[: 4096 * 3], maintenance="rebuild")
        assert obj.indexes.positions is not before  # grown with the buffer
        assert obj.indexes.positions.size == obj.buffer.size
        assert_index_fresh(sysm, obj)
        sysm.append_to_object("e", data[:10], maintenance="rebuild")
        assert obj.indexes.positions.size == obj.buffer.size  # the room held it
        assert_index_fresh(sysm, obj)
