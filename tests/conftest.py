"""Shared fixtures: tiny deterministic datasets and PDC deployments."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from repro.bitmap.index import ObjectIndex, RegionBitmapIndex
from repro.histogram.global_hist import HistogramTable
from repro.histogram.mergeable import MergeableHistogram
from repro.ingest.maintain import histogram_bins_for, histogram_seeds
from repro.pdc import PDCConfig, PDCSystem
from repro.strategies import Strategy

# Tier-1 is fixed-seed; CI's long leg passes ``--hypothesis-profile=long``.
# ``max_examples`` x ``stateful_step_count`` is the budget of the state
# machine in ``tests/test_stateful_fuzz.py`` (every ``@given`` test sets
# its own ``max_examples``).
settings.register_profile(
    "default", max_examples=12, stateful_step_count=30, deadline=None,
    derandomize=True,
)
settings.register_profile(
    "long", max_examples=200, stateful_step_count=50, deadline=None,
    derandomize=False,
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def peak_alloc():
    """``peak_alloc(fn)`` runs ``fn`` and returns the most bytes it held
    above what was live when it started (numpy buffers included) — an
    allocation guard with no clock in it."""

    def measure(fn) -> int:
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()

    return measure


@pytest.fixture
def small_arrays(rng):
    """Two correlated-ish float32 arrays shaped like the VPIC variables."""
    n = 1 << 14
    return {
        "energy": rng.gamma(2.0, 0.7, n).astype(np.float32),
        "x": (rng.random(n) * 300.0).astype(np.float32),
    }


@pytest.fixture(scope="session")
def micro_suite():
    """One real run of the deterministic micro-suite, shared by the session."""
    from repro.obs.regress import run_micro_suite

    return run_micro_suite()


@pytest.fixture
def cached_micro_suite(micro_suite, monkeypatch):
    """``benchcheck`` reuses the session's micro-suite numbers instead of
    re-running the suite (determinism itself is pinned by
    ``TestMicroSuite::test_deterministic``)."""
    monkeypatch.setattr(
        "repro.obs.regress.run_micro_suite", lambda: dict(micro_suite)
    )


def metric_sample(registry, name: str, **labels) -> float:
    """One sample of the registry's exposition (``collect``), by name and
    exact label set."""
    want = {k: str(v) for k, v in labels.items()}
    return next(
        value for n, _, got, value in registry.collect()
        if n == name and got == want
    )


def zero_clocks(system) -> None:
    """Zero every simulated clock, so that what two systems charge from
    here on compares bit for bit (differences of floats would not)."""
    for clock in system.all_clocks():
        clock._now = 0.0
        clock._by_category.clear()


def assert_same_histogram(got, want) -> None:
    """Field for field: grid, extrema (``float.hex``: -0.0 is not 0.0) and
    counts."""
    for field in ("bin_width", "start", "data_min", "data_max"):
        assert float(getattr(got, field)).hex() == float(getattr(want, field)).hex(), field
    assert np.array_equal(got.counts, want.counts)


def assert_histograms_fresh(system, obj) -> None:
    """The object's histogram table and global histogram equal a fresh
    build over the live payload: row for row the same multiset at the same
    extrema (a delta patch keeps its region's older grid), and the global
    histogram ``merge_many`` of the rows field for field."""
    table = obj.meta.histograms
    fresh = HistogramTable.build(
        obj.data, obj.counts, histogram_seeds(obj, np.arange(obj.n_regions)),
        histogram_bins_for(system.config.region_size_bytes),
    )
    fresh.merge()
    assert table.n_regions == obj.n_regions
    assert np.array_equal(obj.rmin, fresh.data_min) and np.array_equal(obj.rmax, fresh.data_max)
    rows = [table.view(rid) for rid in range(obj.n_regions)]
    for rid, row in enumerate(rows):
        assert row.equivalent(fresh.view(rid)), rid
    merged = obj.meta.global_histogram.merged
    assert_same_histogram(merged, MergeableHistogram.merge_many(rows))
    assert merged.equivalent(fresh.global_histogram.merged)


#: An object index's per-bin rows and the pad past a region's bins.
INDEX_ROWS = (("bin_min", np.inf), ("bin_max", -np.inf), ("bin_words", 0),
              ("bin_counts", 0), ("bin_starts", 0))


def region_index(values, precision=2) -> RegionBitmapIndex:
    """One region's bitmap index: its chunk of a one-region build, read."""
    values = np.asarray(values)
    _, chunks = ObjectIndex.build(values, [values.size], precision)
    return RegionBitmapIndex.from_bytes(chunks[0])


def assert_index_fresh(system, obj) -> None:
    """The object's index and index file equal a fresh build over the
    current payload.  The file holds one chunk per region; a region whose
    bitmaps are current (no uncompacted delta, as long as the region) has
    the fresh build's chunk, and every region's index row, counts and
    positions are what its chunk decodes to — pads past its bins."""
    ix = obj.indexes
    _, fresh = ObjectIndex.build(obj.data, obj.counts)
    stored = system.pfs.stat(f"/pdc/index/{obj.name}")
    assert len(stored.chunks) == obj.n_regions
    assert np.array_equal(stored.data, np.concatenate(stored.chunks))
    assert ix.bin_min.shape[0] == obj.n_regions
    for name in ("words", "nbytes", "header_bytes", "n_elements", "delta"):
        assert getattr(ix, name).shape == (obj.n_regions,), name
    for rid, chunk in enumerate(stored.chunks):
        if ix.delta[rid] == 0 and ix.n_elements[rid] == obj.counts[rid]:
            assert np.array_equal(chunk, fresh[rid]), rid
        region = RegionBitmapIndex.from_bytes(chunk)
        k = region.n_occupied_bins
        for name, pad in INDEX_ROWS:
            row = getattr(ix, name)[rid]
            assert np.array_equal(row[:k], getattr(region, name)), (name, rid)
            assert (row[k:] == pad).all(), (name, rid)
        assert (ix.words[rid], ix.nbytes[rid], ix.header_bytes[rid], ix.n_elements[rid]) == (
            region.words.size, region.nbytes, region.header_bytes, region.n_elements), rid
        off = int(obj.offsets[rid])
        assert np.array_equal(ix.positions[off : off + region.n_elements], region.positions), rid


def assert_payload_is_a_prefix_view(obj) -> None:
    """``obj.data`` is ``buffer[:n]``: same memory, no longer than it."""
    assert obj.data.size <= obj.buffer.size
    assert obj.data.__array_interface__["data"][0] == obj.buffer.__array_interface__["data"][0]
    assert np.shares_memory(obj.data, obj.buffer)


def make_system(
    n_servers: int = 4,
    region_size_bytes: int = 1 << 13,
    strategy: Strategy = Strategy.HISTOGRAM,
    tracer=None,
    metrics=None,
    **kwargs,
) -> PDCSystem:
    """A tiny deployment: 4 servers, 8 KiB regions, no virtual scaling.

    ``tracer``/``metrics`` go to the system (observability hooks); other
    kwargs go to :class:`PDCConfig`.
    """
    sysm = PDCSystem(
        PDCConfig(
            n_servers=n_servers,
            region_size_bytes=region_size_bytes,
            strategy=strategy,
            **kwargs,
        ),
        metrics=metrics,
    )
    sysm.set_tracer(tracer)
    return sysm


@pytest.fixture
def system(small_arrays):
    """A deployment pre-loaded with the two small objects."""
    sysm = make_system()
    sysm.create_object("energy", small_arrays["energy"])
    sysm.create_object("x", small_arrays["x"])
    return sysm


@pytest.fixture
def indexed_system(system):
    system.build_index("energy")
    system.build_index("x")
    return system


@pytest.fixture
def replicated_system(system):
    system.build_sorted_replica("energy", ["x"])
    return system
