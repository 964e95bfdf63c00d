"""The central correctness property: every evaluation strategy returns
exactly the numpy ground truth, for any query shape.

All four strategies (full scan, histogram, histogram+index, sorted+
histogram) and the HDF5 baseline must agree
with each other and with a direct mask evaluation — including AND/OR
combinations, equality conditions, spatial region constraints, empty and
full results.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError, QueryTypeError
from repro.faults import FaultConfig, FaultPlan
from repro.interval import Interval
from repro.pdc.region import region_key
from repro.query.ast import combine_and, combine_or, Condition
from repro.query.executor import QueryEngine
from repro.query.kernels import mask_coords
from repro.query.planner import surviving_regions
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp
from tests.conftest import make_system

ALL_STRATEGIES = list(Strategy)


def build_full_system(rng, n=1 << 13, region_bytes=1 << 11, n_servers=4):
    """System with energy/x objects, indexes, and an energy-sorted replica."""
    sysm = make_system(n_servers=n_servers, region_size_bytes=region_bytes)
    e = rng.gamma(2.0, 0.7, n).astype(np.float32)
    x = (rng.random(n) * 300.0).astype(np.float32)
    sysm.create_object("energy", e)
    sysm.create_object("x", x)
    sysm.build_index("energy")
    sysm.build_index("x")
    sysm.build_sorted_replica("energy", ["x"])
    return sysm, e, x


def cond(name, op, value):
    return Condition(object_name=name, op=QueryOp(op), pdc_type=PDCType.FLOAT, value=value)


def _banded(dtype, seed, n_regions=20):
    """Ragged data in 2 KiB regions, the last one short.  Each region draws
    from a band of a small grid of values ``k * step`` — a quarter of them
    one value — so region min/max often equal a grid bound."""
    per = (1 << 11) // np.dtype(dtype).itemsize
    n = n_regions * per - per // 3
    rng = np.random.default_rng(seed)
    k = np.empty(n)
    for start in range(0, n, per):
        lo = rng.integers(0, 9)
        k[start : start + per] = rng.integers(
            lo, lo + rng.choice([0, 1, 2, 4]) + 1, min(per, n - start)
        )
    step = 1 if np.dtype(dtype).kind == "i" else 0.7
    return (k * step).astype(dtype), step


@pytest.fixture(scope="module")
def env():
    rng = np.random.default_rng(99)
    return build_full_system(rng)


def check_all_strategies(env, node, truth_mask, constraint=None):
    sysm, e, x = env
    truth = np.flatnonzero(truth_mask)
    if constraint is not None:
        truth = truth[(truth >= constraint[0]) & (truth < constraint[1])]
    engine = QueryEngine(sysm)
    for strat in ALL_STRATEGIES:
        res = engine.execute(
            node, want_selection=True, region_constraint=constraint, strategy=strat
        )
        assert res.nhits == truth.size, (strat, res.nhits, truth.size)
        assert np.array_equal(res.selection.coords, truth), strat


class TestSingleObject:
    @pytest.mark.parametrize("op", [">", ">=", "<", "<="])
    @pytest.mark.parametrize("value", [0.5, 2.0, 2.1, 10.0, -1.0])
    def test_one_sided(self, env, op, value):
        _, e, _ = env
        check_all_strategies(env, cond("energy", op, value), QueryOp(op).apply(e, value))

    def test_equality(self, env):
        sysm, e, _ = env
        v = float(e[1234])
        check_all_strategies(env, cond("energy", "=", v), e == v)

    def test_window(self, env):
        _, e, _ = env
        node = combine_and(cond("energy", ">", 2.1), cond("energy", "<", 2.2))
        check_all_strategies(env, node, (e > 2.1) & (e < 2.2))

    def test_empty_result(self, env):
        _, e, _ = env
        check_all_strategies(env, cond("energy", ">", 1e9), np.zeros_like(e, dtype=bool))

    def test_full_result(self, env):
        _, e, _ = env
        check_all_strategies(env, cond("energy", ">=", -1.0), np.ones_like(e, dtype=bool))

    def test_contradictory_window(self, env):
        _, e, _ = env
        node = combine_and(cond("energy", ">", 5.0), cond("energy", "<", 1.0))
        check_all_strategies(env, node, np.zeros_like(e, dtype=bool))


class TestMultiObject:
    def test_and_across_objects(self, env):
        _, e, x = env
        node = combine_and(cond("energy", ">", 2.0), cond("x", "<", 100.0))
        check_all_strategies(env, node, (e > 2.0) & (x < 100.0))

    def test_or_across_objects(self, env):
        _, e, x = env
        node = combine_or(cond("energy", ">", 3.0), cond("x", ">", 290.0))
        check_all_strategies(env, node, (e > 3.0) | (x > 290.0))

    def test_nested_and_or(self, env):
        _, e, x = env
        node = combine_or(
            combine_and(cond("energy", ">", 2.0), cond("x", "<", 50.0)),
            combine_and(cond("energy", "<", 0.1), cond("x", ">", 250.0)),
        )
        truth = ((e > 2.0) & (x < 50.0)) | ((e < 0.1) & (x > 250.0))
        check_all_strategies(env, node, truth)

    def test_four_way_and(self, env):
        _, e, x = env
        node = combine_and(
            combine_and(cond("energy", ">", 1.0), cond("energy", "<", 3.0)),
            combine_and(cond("x", ">", 100.0), cond("x", "<", 200.0)),
        )
        truth = (e > 1.0) & (e < 3.0) & (x > 100.0) & (x < 200.0)
        check_all_strategies(env, node, truth)


class TestRegionConstraint:
    def test_constraint_clips_results(self, env):
        _, e, _ = env
        node = cond("energy", ">", 2.0)
        check_all_strategies(env, node, e > 2.0, constraint=(1000, 5000))

    def test_constraint_not_aligned_to_regions(self, env):
        """§III-A: 'the region selection can be arbitrary and does not need
        to match any of the existing PDC internal region partitions'."""
        _, e, _ = env
        check_all_strategies(env, cond("energy", ">", 1.5), e > 1.5, constraint=(777, 3333))

    def test_constraint_with_multi_object(self, env):
        _, e, x = env
        node = combine_and(cond("energy", ">", 1.5), cond("x", "<", 150.0))
        check_all_strategies(env, node, (e > 1.5) & (x < 150.0), constraint=(100, 8000))


class TestRegionRunKernel:
    """The answer plane follows the plan: the first condition is masked
    over runs of surviving regions only, and per-region hit counts come
    from boundary searches on the sorted coordinates."""

    @pytest.fixture
    def ragged(self):
        """10 000 elements in 512-element regions: the twentieth is short."""
        e = np.random.default_rng(5).gamma(2.0, 0.7, 10_000).astype(np.float32)
        sysm = make_system(region_size_bytes=1 << 11)
        obj = sysm.create_object("energy", e)
        assert obj.n_regions == 20 and obj.counts[-1] < obj.region_elements
        return sysm, obj, e

    def test_equals_whole_window_mask_on_surviving_regions(self, ragged):
        sysm, obj, e = ragged
        rng = np.random.default_rng(6)
        iv = Interval(lo=1.0, hi=2.5, lo_closed=False)
        whole = (0, e.size)
        cases = [
            (np.arange(obj.n_regions), whole),  # nothing pruned: one run
            (np.zeros(0, dtype=np.int64), whole),  # everything pruned
            (np.array([obj.n_regions - 1]), whole),  # only the short region
        ]
        for _ in range(60):
            regions = np.flatnonzero(rng.random(obj.n_regions) < rng.choice([0.2, 0.5, 0.9]))
            constraint = whole
            if regions.size and rng.random() < 0.7:
                # A constraint that cuts into the first and last survivor.
                first, last = regions[0], regions[-1]
                cstart = int(obj.offsets[first] + rng.integers(0, obj.counts[first]))
                cstop = int(obj.offsets[last] + rng.integers(1, obj.counts[last] + 1))
                if cstop > cstart:
                    constraint = (cstart, cstop)
            cases.append((regions, constraint))
        for regions, (cstart, cstop) in cases:
            window = np.flatnonzero(iv.mask(e[cstart:cstop])) + cstart
            want = window[np.isin(window // obj.region_elements, regions)]
            got = mask_coords(
                obj, iv, (cstart, cstop), regions, np.zeros(regions.size, dtype=bool)
            )
            assert got.dtype == np.int64
            assert np.array_equal(got, want), (regions, cstart, cstop)

    def test_region_hits_equal_per_coordinate_counts(self, ragged):
        sysm, obj, e = ragged

        def check(obj, coords):
            region_ids, hits = obj.region_hits(coords)
            want = np.unique(coords // obj.region_elements, return_counts=True)
            assert np.array_equal(region_ids, want[0])
            assert np.array_equal(hits, want[1])

        none = np.zeros(0, dtype=np.int64)
        check(obj, none)
        check(obj, np.flatnonzero(e > 1.0))
        check(obj, np.array([0, 1, obj.region_elements - 1]))
        check(obj, np.array([e.size - 1]))
        single = sysm.create_object("single", e[:100])
        check(single, none)
        check(single, np.arange(0, 100, 3))
        # An append fills the short tail and adds regions; the boundaries
        # searched must be the re-partitioned ones.
        sysm.append_to_object("energy", e[:1500])
        assert obj.n_regions == 23 and obj.n_elements == 11_500
        check(obj, np.flatnonzero(obj.data > 1.0))
        check(obj, np.array([10_239, 10_240, 11_499]))

    def test_pruned_query_never_masks_the_whole_window(self, peak_alloc):
        """One surviving region of 256: the query may not hold even one
        bool per element of the object (the whole-window mask it used to
        build whatever the plan had pruned)."""
        per = 1024
        data = np.random.default_rng(7).random(256 * per).astype(np.float32)
        data[100 * per + 10 : 100 * per + 20] = 3.0
        sysm = make_system(region_size_bytes=per * 4)
        sysm.create_object("energy", data)
        engine = QueryEngine(sysm)
        out = []
        peak = peak_alloc(lambda: out.append(
            engine.execute(cond("energy", ">", 2.0), strategy=Strategy.HISTOGRAM)
        ))
        assert out[0].regions_pruned == 255 and out[0].regions_read == 1
        assert out[0].selection.coords.tolist() == list(range(100 * per + 10, 100 * per + 20))
        assert peak < data.size

    def test_covered_query_allocates_no_mask(self, peak_alloc):
        """Every region's min/max inside the interval: the answer is each
        coordinate of the window, built without one bool per element (a
        masked run holds a bool mask beside its hit coordinates)."""
        per = 1024
        data = np.random.default_rng(8).random(256 * per).astype(np.float32)
        sysm = make_system(region_size_bytes=per * 4)
        sysm.create_object("energy", data)
        engine = QueryEngine(sysm)
        out = []
        peak = peak_alloc(lambda: out.append(engine.execute(
            cond("energy", ">=", 0.0), want_selection=False, strategy=Strategy.HISTOGRAM,
        )))
        assert out[0].nhits == data.size
        assert peak < 8 * data.size + data.size // 2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
    def test_three_outcomes_equal_the_whole_window_mask(self, dtype):
        """Pruned, covered and straddling regions are three outcomes of one
        kernel.  On ragged objects of constant regions, regions inside the
        interval and regions whose min or max is a bound, under open and
        closed bounds: a region is covered exactly when every element
        matches, a pruned one holds no match, and the kernel — clipped by
        constraints that cut into covered regions, with lost regions taken
        out — equals the whole-window mask restricted to the survivors."""
        data, step = _banded(dtype, seed=3)
        sysm = make_system(region_size_bytes=1 << 11)
        obj = sysm.create_object("v", data)
        rng = np.random.default_rng(4)
        grid = [float(data.dtype.type(k * step)) for k in range(-1, 12)]
        bounds = [None] + grid
        ties = covered_total = 0
        for lo in bounds:
            for hi in bounds:
                for lo_closed, hi_closed in ((True, True), (False, True), (True, False),
                                             (False, False)):
                    if lo is not None and hi is not None and (
                        lo > hi or (lo == hi and not (lo_closed and hi_closed))
                    ):
                        continue
                    iv = Interval(lo, hi, lo_closed, hi_closed)
                    cstart, cstop = 0, data.size
                    if rng.random() < 0.5:
                        cstart = int(rng.integers(0, data.size // 2))
                        cstop = int(rng.integers(cstart + 1, data.size + 1))
                    regions, covered, pruned = surviving_regions(obj, iv, (cstart, cstop))
                    every = np.logical_and.reduceat(iv.mask(data), obj.offsets)
                    some = np.logical_or.reduceat(iv.mask(data), obj.offsets)
                    assert np.array_equal(covered, every[regions]), iv
                    inside = np.arange(cstart // obj.region_elements,
                                       (cstop - 1) // obj.region_elements + 1)
                    assert not some[np.setdiff1d(inside, regions)].any(), iv
                    assert pruned == inside.size - regions.size
                    covered_total += int(covered.sum())
                    if lo is not None:
                        ties += int((obj.rmin[regions] == lo).sum())
                    if hi is not None:
                        ties += int((obj.rmax[regions] == hi).sum())
                    readable = rng.random(regions.size) >= 0.2  # the rest are lost
                    regions, covered = regions[readable], covered[readable]
                    window = np.flatnonzero(iv.mask(data[cstart:cstop])) + cstart
                    want = window[np.isin(window // obj.region_elements, regions)]
                    got = mask_coords(obj, iv, (cstart, cstop), regions, covered)
                    assert got.dtype == np.int64
                    assert np.array_equal(got, want), (iv, cstart, cstop)
        assert covered_total > 100 and ties > 10

    @pytest.mark.parametrize("strategy", [Strategy.HISTOGRAM, Strategy.HIST_INDEX])
    def test_covered_candidates_with_lost_regions(self, strategy):
        """Later AND steps keep candidates in covered regions without
        gathering their values; under a fault plan the hits of every lost
        region — of either object — are dropped, and nothing else."""
        a, step = _banded(np.float32, seed=5)
        b, _ = _banded(np.float32, seed=6)
        sysm = make_system(region_size_bytes=1 << 11)
        for name, data in (("a", a), ("b", b)):
            sysm.create_object(name, data)
            sysm.build_index(name)
        per = sysm.get_object("a").region_elements
        lost = {("a", 3), ("a", 11), ("b", 5), ("b", 8), ("b", 19)}

        class LoseRegions(FaultPlan):
            """Data regions and index files of ``lost`` stay unreadable."""

            def pfs_read_fails(self, key: str) -> bool:
                return any(
                    key == region_key(n, r, tag) for n, r in lost for tag in ("orig", "idx")
                )

        sysm.set_fault_plan(LoseRegions(seed=0, config=FaultConfig(max_retries=1)))
        engine = QueryEngine(sysm)
        lo, hi = float(np.float32(2 * step)), float(np.float32(7 * step))
        degraded = 0
        for lo_op, hi_op in ((">=", "<="), (">", "<"), (">=", "<")):
            node = combine_and(
                combine_and(cond("a", lo_op, lo), cond("a", hi_op, hi)),
                combine_and(cond("b", lo_op, lo), cond("b", hi_op, hi)),
            )
            both = [QueryOp(lo_op).apply(v, np.float32(lo)) & QueryOp(hi_op).apply(v, np.float32(hi))
                    for v in (a, b)]
            truth = np.flatnonzero(both[0] & both[1])
            res = engine.execute(node, strategy=strategy)
            dropped = {region_key(n, r) for n, r in lost} & set(res.lost_regions)
            gone = np.zeros(sysm.get_object("a").n_regions, dtype=bool)
            gone[[r for n, r in lost if region_key(n, r) in dropped]] = True
            assert res.complete == (not dropped)
            degraded += bool(dropped)
            assert np.array_equal(res.selection.coords, truth[~gone[truth // per]])
        assert degraded


def _agreement_objects():
    """One object per element type, 4,096 elements in 512-element regions.

    ``e`` (float32) holds ``float32(2.2)`` twice, and two regions end
    exactly on the float32 images of 2.3 and 0.7: region 0 tops out at
    ``float32(2.3)``, region 1 bottoms out at ``float32(0.7)``, several
    elements each — the ties a float64 min/max test and a float32 mask used
    to answer differently.  Region 2 lies inside ``[float32(0.7),
    float32(2.3)]`` and attains both ends, so a bound on either literal
    covers it exactly when that end is closed.  ``d`` is the same draw in
    float64, ``i`` int32.
    """
    rng = np.random.default_rng(0)
    d = rng.gamma(2.0, 0.7, 4096)
    e = d.astype(np.float32)
    e[[10, 2000]] = np.float32(2.2)
    e[:512] = np.minimum(e[:512], np.float32(2.3))
    e[512:1024] = np.maximum(e[512:1024], np.float32(0.7))
    e[1024:1536] = np.clip(e[1024:1536], np.float32(0.7), np.float32(2.3))
    return {"e": e, "d": d, "i": rng.integers(-40, 40, 4096).astype(np.int32)}


def _neighbours(v):
    """``v`` and the float32 / float64 values either side of it."""
    out = [("", float(v))]
    for width, wide in (("32", np.float32), ("64", np.float64)):
        for sign, toward in (("-", -np.inf), ("+", np.inf)):
            out.append((f"{sign}u{width}", float(np.nextafter(wide(v), wide(toward)))))
    return out


def _agreement_bounds():
    """object → [(label, bound)]: the data's own values, their float32 and
    float64 neighbours, the literals whose float32 images are ``e``'s
    region-boundary ties, whole numbers, the infinities."""
    data = _agreement_objects()
    e, d, i = data["e"], data["d"], data["i"]
    floats = [("2.2lit", 2.2), ("2.3lit", 2.3), ("0.7lit", 0.7), ("2", 2.0),
              ("+inf", np.inf), ("-inf", -np.inf)]
    return {
        "e": floats
        + [(f"2.2{s}", b) for s, b in _neighbours(np.float32(2.2))]
        + [(f"e1234{s}", b) for s, b in _neighbours(e[1234])],
        "d": floats + [(f"d77{s}", b) for s, b in _neighbours(d[77])],
        "i": [("i5", float(i[5])), ("i5+1", float(i[5]) + 1), ("min", float(i.min())),
              ("max+1", float(i.max()) + 1)],
    }


def _agreement_cases():
    """Every (object, bound, operator, declared type) a ``Condition`` can be
    built from: a declared ``INT`` takes only the whole-number bounds, an
    integral object only bounds that are still whole once declared."""
    cases = []
    for name, bounds in _agreement_bounds().items():
        for label, b in bounds:
            for pdc_type in (PDCType.FLOAT, PDCType.DOUBLE, PDCType.INT):
                if (pdc_type.is_integral or name == "i") and not float(b).is_integer():
                    continue
                prefix = "" if name == "e" else f"{name}-"
                for op in QueryOp:
                    cases.append(pytest.param(
                        name, b, op, pdc_type,
                        id=f"{prefix}{op.name}-{pdc_type.name}-{label}",
                    ))
    return cases


class TestCrossStrategyAgreement:
    """One comparison rule — a bound is converted to its object's element
    type, then compared — so the five strategies, the HDF5-F baseline and
    the histogram estimate answer every condition alike,
    whatever the bound's width and the declared type, and that answer is
    NumPy's own."""

    @pytest.fixture(scope="class")
    def deployment(self):
        from repro.baselines import HDF5FullScanEngine

        sysm = make_system(n_servers=2, region_size_bytes=1 << 11)
        objects = _agreement_objects()
        names = list(objects)
        for name, data in objects.items():
            sysm.create_object(name, data, tags={"object": name})
            sysm.build_index(name)
            sysm.build_sorted_replica(name, [])
        h5 = HDF5FullScanEngine(sysm)
        h5.preload(names)
        return sysm, QueryEngine(sysm), h5

    @pytest.mark.parametrize("name,bound,op,pdc_type", _agreement_cases())
    def test_agree(self, deployment, name, bound, op, pdc_type):
        from repro.query.api import PDCQuery, PDCquery_estimate_nhits
        from repro.workloads.queries import QuerySpec

        sysm, engine, h5 = deployment
        node = Condition(name, op, pdc_type, bound)
        truth = np.flatnonzero(op.apply(sysm.get_object(name).data, node.value))
        for strategy in ALL_STRATEGIES:
            res = engine.execute(node, strategy=strategy, want_selection=True)
            assert np.array_equal(res.selection.coords, truth), strategy
        lower, upper = PDCquery_estimate_nhits(PDCQuery(sysm, node))
        assert lower <= truth.size <= upper
        spec = QuerySpec("t", ((name, op.value, node.value),))
        assert np.array_equal(h5.query(spec, want_selection=True).coords, truth)

    @pytest.mark.parametrize("name", list(_agreement_objects()))
    def test_raw_interval_doors_agree(self, deployment, name):
        """``metadata_data_query`` and ``boss_traverse`` take an untyped
        two-sided :class:`Interval`; they type it per matched object."""
        sysm, engine, h5 = deployment
        data = sysm.get_object(name).data
        bounds = sorted({b for _, b in _agreement_bounds()[name]})
        catalog = list(sysm.objects)
        for lo, hi in zip(bounds, bounds[1:]):
            for lo_closed, hi_closed in ((True, True), (False, True), (True, False)):
                iv = Interval(lo, hi, lo_closed, hi_closed)
                above = data >= lo if lo_closed else data > lo
                below = data <= hi if hi_closed else data < hi
                truth = int((above & below).sum())
                if data.dtype.type(lo) == data.dtype.type(hi) and not (lo_closed and hi_closed):
                    # Empty in the object's type: refused like Interval(v, v, open).
                    assert truth == 0
                    with pytest.raises(QueryError):
                        engine.metadata_data_query({"object": name}, iv)
                    with pytest.raises(QueryError):
                        h5.boss_traverse({"object": name}, iv, catalog)
                    continue
                for strategy in ALL_STRATEGIES:
                    res = engine.metadata_data_query({"object": name}, iv, strategy)
                    assert res.per_object_hits == {name: truth}, (iv, strategy)
                assert h5.boss_traverse({"object": name}, iv, catalog).nhits == truth

    def test_fractional_bound_on_integral_object_refused(self, deployment):
        """Every door refuses what the paper-API door always has."""
        from repro.query.api import PDCQuery, PDCquery_estimate_nhits
        from repro.workloads.queries import QuerySpec

        sysm, engine, h5 = deployment
        node = Condition("i", QueryOp.GT, PDCType.DOUBLE, 2.5)
        spec = QuerySpec("t", (("i", ">", 2.5),))
        iv = Interval(lo=2.5, hi=7.0)
        doors = [lambda s=s: engine.execute(node, strategy=s) for s in ALL_STRATEGIES] + [
            lambda: PDCquery_estimate_nhits(PDCQuery(sysm, node)),
            lambda: h5.query(spec),
            lambda: engine.metadata_data_query({"object": "i"}, iv),
            lambda: h5.boss_traverse({"object": "i"}, iv, ["i"]),
        ]
        for door in doors:
            with pytest.raises(QueryTypeError):
                door()


class TestWrittenOrder:
    """The related-work block index [26] (§VIII): fixed-size regions with
    min/max, whole-region reads, conditions checked in written order — the
    PDC-H plan without histogram ordering."""

    @pytest.fixture
    def clustered(self, rng):
        sysm = make_system(n_servers=4, region_size_bytes=1 << 11)
        n = 1 << 13
        e = rng.gamma(2.0, 0.4, n).astype(np.float32)
        e[n // 2 : n // 2 + n // 16] += 5.0  # clustered hot stretch
        x = (rng.random(n) * 300).astype(np.float32)
        sysm.create_object("energy", e)
        sysm.create_object("x", x)
        return sysm, QueryEngine(sysm, enable_ordering=False), e, x

    def test_single_condition(self, clustered):
        _, engine, e, _ = clustered
        res = engine.execute(
            cond("energy", ">", 5.0), want_selection=True, strategy=Strategy.HISTOGRAM
        )
        assert np.array_equal(res.selection.coords, np.flatnonzero(e > 5.0))

    def test_multi_condition(self, clustered):
        _, engine, e, x = clustered
        # The unselective condition first, as written.
        node = combine_and(cond("x", "<", 150.0), cond("energy", ">", 5.0))
        res = engine.execute(node, want_selection=True, strategy=Strategy.HISTOGRAM)
        assert res.evaluation_order == ["x", "energy"]
        truth = np.flatnonzero((e > np.float32(5.0)) & (x < np.float32(150.0)))
        assert np.array_equal(res.selection.coords, truth)

    def test_contradiction(self, clustered):
        _, engine, _, _ = clustered
        node = combine_and(cond("energy", ">", 5.0), cond("energy", "<", 1.0))
        assert engine.execute(node, strategy=Strategy.HISTOGRAM).nhits == 0

    def test_pruning_reads_fewer_regions_than_total(self, clustered):
        sysm, engine, _, _ = clustered
        res = engine.execute(cond("energy", ">", 5.0), strategy=Strategy.HISTOGRAM)
        assert 0 < res.regions_read < sysm.get_object("energy").n_regions
        assert res.regions_pruned > 0


class TestPropertyBased:
    @given(
        seed=st.integers(0, 2**31),
        op1=st.sampled_from([">", ">=", "<", "<="]),
        v1=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        op2=st.sampled_from([">", ">=", "<", "<="]),
        v2=st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
        use_or=st.booleans(),
        strat=st.sampled_from(ALL_STRATEGIES),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_two_object_queries(self, seed, op1, v1, op2, v2, use_or, strat):
        rng = np.random.default_rng(seed)
        sysm = make_system(n_servers=3, region_size_bytes=1 << 11)
        n = 1 << 11
        e = rng.gamma(2.0, 0.7, n).astype(np.float32)
        x = (rng.random(n) * 300.0).astype(np.float32)
        sysm.create_object("energy", e)
        sysm.create_object("x", x)
        if strat is Strategy.HIST_INDEX:
            sysm.build_index("energy")
            sysm.build_index("x")
        if strat is Strategy.SORT_HIST:
            sysm.build_sorted_replica("energy", ["x"])
        combine = combine_or if use_or else combine_and
        node = combine(cond("energy", op1, v1), cond("x", op2, v2))
        m1 = QueryOp(op1).apply(e, np.float32(v1))
        m2 = QueryOp(op2).apply(x, np.float32(v2))
        truth = np.flatnonzero(m1 | m2 if use_or else m1 & m2)
        res = QueryEngine(sysm).execute(node, want_selection=True, strategy=strat)
        assert np.array_equal(res.selection.coords, truth)


class TestInt64AtTheFloat64Limit:
    """19 int64 values around ±2**53, where float64 stops being exact: a
    bound of magnitude 2**53 - 1 gets NumPy's integer answer from the five
    strategies and HDF5-F, and one of 2**53 is refused by all six (its
    float64 image made ``v > 2**53`` miss ``2**53 + 1``)."""

    @pytest.fixture(scope="class", params=[1, -1], ids=["pos", "neg"])
    def deployment(self, request):
        from repro.baselines import HDF5FullScanEngine

        sign = request.param
        data = (sign * (2**53 + np.arange(-9, 10))).astype(np.int64)
        sysm = make_system(n_servers=2, region_size_bytes=4 * 8)
        sysm.create_object("v", data)
        sysm.build_index("v")
        sysm.build_sorted_replica("v", [])
        h5 = HDF5FullScanEngine(sysm)
        h5.preload(["v"])
        return sign, data, QueryEngine(sysm), h5

    def answers(self, engine, h5, op, bound):
        from repro.workloads.queries import QuerySpec

        node = Condition("v", op, PDCType.INT64, bound)
        out = [engine.execute(node, strategy=s, want_selection=True).selection.coords
               for s in ALL_STRATEGIES]
        spec = QuerySpec("t", (("v", op.value, bound),))
        return out + [h5.query(spec, want_selection=True).coords]

    @pytest.mark.parametrize("op", list(QueryOp), ids=lambda op: op.name)
    def test_last_exact_bound_equals_numpy(self, deployment, op):
        sign, data, engine, h5 = deployment
        for bound in (2**53 - 1, -(2**53 - 1)):
            truth = np.flatnonzero(op.apply(data, bound))
            answers = self.answers(engine, h5, op, bound)
            assert len(answers) == 6
            for got in answers:
                assert np.array_equal(got, truth), (op, bound)

    @pytest.mark.parametrize("op", list(QueryOp), ids=lambda op: op.name)
    def test_bound_of_2_53_refused_everywhere(self, deployment, op):
        from repro.workloads.queries import QuerySpec

        sign, data, engine, h5 = deployment
        node = Condition("v", op, PDCType.INT64, sign * 2**53)
        for strategy in ALL_STRATEGIES:
            with pytest.raises(QueryTypeError, match="2\\*\\*53"):
                engine.execute(node, strategy=strategy)
        with pytest.raises(QueryTypeError, match="2\\*\\*53"):
            h5.query(QuerySpec("t", (("v", op.value, sign * 2**53),)))


class TestHDF5BaselineAgreement:
    def test_baseline_matches_truth(self, env):
        from repro.baselines import HDF5FullScanEngine
        from repro.workloads.queries import QuerySpec

        sysm, e, x = env
        spec = QuerySpec(
            label="t",
            conditions=(("energy", ">", 2.0), ("x", "<", 100.0)),
        )
        h5 = HDF5FullScanEngine(sysm)
        h5.preload(["energy", "x"])
        res = h5.query(spec, want_selection=True)
        truth = np.flatnonzero((e > 2.0) & (x < 100.0))
        assert np.array_equal(res.coords, truth)
