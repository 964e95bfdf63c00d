"""A numeric differential for the histogram table: over adversarial value
families, every row equals ``MergeableHistogram.from_data`` of its region,
the global histogram equals ``merge_many`` of the rows, the estimate
brackets the truth, and every strategy answers like NumPy (an int64 bound
of magnitude 2**53 or more is refused by every door)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import HDF5FullScanEngine
from repro.errors import QueryTypeError
from repro.histogram.mergeable import MergeableHistogram
from repro.ingest.maintain import histogram_bins_for, histogram_seeds
from repro.interval import Interval
from repro.query.api import PDCQuery, PDCquery_estimate_nhits
from repro.query.ast import Condition
from repro.query.executor import QueryEngine
from repro.strategies import Strategy
from repro.types import QueryOp, pdc_type_of_dtype
from repro.workloads.queries import QuerySpec
from tests.conftest import assert_same_histogram, make_system

REGION = 64  # elements per region
FAMILIES = ("sub_ulp", "subnormal", "huge", "int64_past_2_53", "signed_zero", "single_valued")
STRATEGIES = (Strategy.FULL_SCAN, Strategy.HISTOGRAM, Strategy.HIST_INDEX, Strategy.SORT_HIST)


def family_values(family: str, dtype: np.dtype, n: int, seed: int) -> np.ndarray:
    """``n`` values of one adversarial family in ``dtype``."""
    rng = np.random.default_rng(seed)
    if family == "int64_past_2_53" or dtype.kind == "i":
        # 2**50..2**52: every bound is accepted; from 2**53 some are refused.
        base = (1 << int(rng.integers(50, 62))) * int(rng.choice([-1, 1]))
        return (base + rng.integers(-2000, 2000, n)).astype(np.int64)
    if family == "sub_ulp":
        base = dtype.type(rng.uniform(1e-3, 1e6) * rng.choice([-1, 1]))
        ladder = base + np.arange(int(rng.integers(2, 40)), dtype=dtype) * np.spacing(base)
        return ladder[rng.integers(0, ladder.size, n)]
    if family == "subnormal":
        tiny = np.finfo(dtype).smallest_subnormal
        return (rng.integers(-40, 40, n) * tiny).astype(dtype)
    if family == "huge":
        top = 2.0 ** 1020 if dtype == np.float64 else float(np.finfo(np.float32).max)
        mags = top * 0.5 ** rng.integers(0, 8, n).astype(np.float64)
        return (mags * rng.choice([-1.0, 1.0], n)).astype(dtype)
    if family == "signed_zero":
        values = rng.choice([-0.0, 0.0, 1.0, -1.0], n, p=[0.4, 0.4, 0.1, 0.1])
        return values.astype(dtype)
    # single_valued: each region one value, some regions far apart.
    per_region = rng.choice([0.0, -3.5, 7.0, 1e30], -(-n // REGION))
    return np.repeat(per_region, REGION)[:n].astype(dtype)


@st.composite
def payloads(draw):
    dtype = np.dtype(draw(st.sampled_from(["float32", "float64", "int64"])))
    family = draw(st.sampled_from(FAMILIES))
    # Ragged tails: any length, not only whole regions.
    n = draw(st.integers(1, 6 * REGION))
    return family_values(family, dtype, n, draw(st.integers(0, 2**32 - 1)))


def bounds_around(values: np.ndarray, rng) -> list:
    """Bounds drawn from the values and one ulp beside them."""
    picks = values[rng.integers(0, values.size, 3)].tolist()
    return [float(b) for v in picks for b in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))]


class TestTableEqualsTheReference:
    @given(payloads())
    @settings(max_examples=150, deadline=None)
    def test_rows_global_estimates_and_answers(self, data):
        sysm = make_system(n_servers=2, region_size_bytes=REGION * data.itemsize)
        obj = sysm.create_object("v", data)
        table = obj.meta.histograms
        seeds = histogram_seeds(obj, np.arange(obj.n_regions)).tolist()
        n_bins = histogram_bins_for(sysm.config.region_size_bytes)
        rows = []
        for rid, (off, count) in enumerate(zip(obj.offsets.tolist(), obj.counts.tolist())):
            want = MergeableHistogram.from_data(
                data[off : off + count], n_bins=n_bins, seed=seeds[rid])
            assert_same_histogram(table.view(rid), want)
            rows.append(want)
        assert_same_histogram(obj.meta.global_histogram.merged, MergeableHistogram.merge_many(rows))

        sysm.build_index("v")
        sysm.build_sorted_replica("v")
        engine, h5 = QueryEngine(sysm), HDF5FullScanEngine(sysm)
        h5.preload(["v"])
        pdc_type = pdc_type_of_dtype(data.dtype)
        as_float = data.astype(np.float64)
        limit = 2.0**53 if data.dtype.kind == "i" else float(np.finfo(data.dtype).max)
        rng = np.random.default_rng(data.size)
        for bound in bounds_around(as_float, rng):
            for op in (QueryOp.GT, QueryOp.LTE):
                # The histograms count the float64 images of the values.
                lower, upper = obj.meta.global_histogram.estimate_hits(
                    Interval.from_op(op, bound))
                assert lower <= int(op.apply(as_float, bound).sum()) <= upper, (op, bound)
                # A literal is finite in the object's type, and an integer
                # one at most 2**53 in magnitude.
                value = float(np.clip(bound, -limit, limit))
                value = int(value) if data.dtype.kind == "i" else value
                node = Condition("v", op, pdc_type, value)
                spec = QuerySpec("t", (("v", op.value, node.value),))
                if data.dtype.kind == "i" and abs(node.value) >= 2**53:
                    # Past the float64-exact range: refused at every door.
                    with pytest.raises(QueryTypeError):
                        PDCquery_estimate_nhits(PDCQuery(sysm, node))
                    for strategy in STRATEGIES:
                        with pytest.raises(QueryTypeError):
                            engine.execute(node, strategy=strategy)
                    with pytest.raises(QueryTypeError):
                        h5.query(spec)
                    continue
                # NumPy's answer to the bound in the object's type (an
                # integer one compares as an integer).
                truth = np.flatnonzero(op.apply(data, node.value))
                lower, upper = PDCquery_estimate_nhits(PDCQuery(sysm, node))
                assert lower <= truth.size <= upper, (op, value)
                for strategy in STRATEGIES:
                    res = engine.execute(node, strategy=strategy, want_selection=True)
                    assert np.array_equal(res.selection.coords, truth), strategy
                assert np.array_equal(h5.query(spec, want_selection=True).coords, truth)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("dtype", ["float32", "float64", "int64"])
def test_every_family_builds(family, dtype):
    """Each family in each dtype: the import is refused by nothing and the
    rows hold every element."""
    data = family_values(family, np.dtype(dtype), 5 * REGION + 7, seed=3)
    obj = make_system(region_size_bytes=REGION * data.itemsize).create_object("v", data)
    assert int(obj.meta.histograms.counts.sum()) == data.size
    assert obj.meta.global_histogram.merged.total == data.size
