"""Microbenchmarks of the substrates (real wall time, not simulated).

These exercise the hot data structures directly so pytest-benchmark's
statistics are meaningful: WAH compression, mergeable-histogram build and
merge, bitmap-index build and probe, and sorted-replica search.
"""

import numpy as np
import pytest

from repro.bitmap import wah
from repro.bitmap.index import ObjectIndex
from repro.histogram.mergeable import MergeableHistogram
from repro.interval import Interval
from repro.sorting import SortedReplica

N = 1 << 16


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    return rng.gamma(2.0, 0.7, N).astype(np.float32).astype(np.float64)


@pytest.mark.benchmark(group="micro-wah")
def test_wah_compress_sparse(benchmark):
    rng = np.random.default_rng(0)
    bits = rng.random(N) < 0.01
    words, _ = benchmark(wah.compress, bits)
    assert wah.count_set_bits(words) == bits.sum()


@pytest.mark.benchmark(group="micro-wah")
def test_wah_decompress(benchmark):
    rng = np.random.default_rng(0)
    bits = rng.random(N) < 0.01
    words, n = wah.compress(bits)
    out = benchmark(wah.decompress, words, n)
    assert np.array_equal(out, bits)

@pytest.mark.benchmark(group="micro-histogram")
def test_histogram_build(benchmark, data):
    h = benchmark(MergeableHistogram.from_data, data, 64)
    assert h.total == data.size


@pytest.mark.benchmark(group="micro-histogram")
def test_histogram_merge_64_regions(benchmark, data):
    hists = [
        MergeableHistogram.from_data(chunk, n_bins=64)
        for chunk in np.array_split(data, 64)
    ]
    merged = benchmark(MergeableHistogram.merge_many, hists)
    assert merged.total == data.size


@pytest.mark.benchmark(group="micro-histogram")
def test_histogram_estimate(benchmark, data):
    h = MergeableHistogram.from_data(data, n_bins=64)
    iv = Interval(lo=2.1, hi=2.2)
    benchmark(h.estimate_hits, iv)


#: The object of the index benchmarks: ``data`` in 64 regions of 1,024.
REGIONS = np.full(64, 1 << 10)


@pytest.mark.benchmark(group="micro-index")
def test_bitmap_index_build(benchmark, data):
    index, chunks = benchmark(ObjectIndex.build, data, REGIONS, 2)
    assert index.n_elements.tolist() == REGIONS.tolist() and len(chunks) == REGIONS.size


@pytest.mark.benchmark(group="micro-index")
def test_bitmap_index_probe(benchmark, data):
    index, _ = ObjectIndex.build(data, REGIONS, precision=2)
    iv = Interval(lo=2.1, hi=2.2, lo_closed=False, hi_closed=False)
    words, candidates = benchmark(index.footprint, iv, np.arange(REGIONS.size))
    assert words.all() and not candidates.any()


@pytest.mark.benchmark(group="micro-sorted")
def test_sorted_replica_build(benchmark, data):
    r = benchmark(SortedReplica.build, "k", data)
    assert r.n_elements == data.size


@pytest.mark.benchmark(group="micro-sorted")
def test_sorted_replica_search(benchmark, data):
    r = SortedReplica.build("k", data)
    start, stop = benchmark(r.search_range, 2.1, 2.2)
    assert stop >= start
