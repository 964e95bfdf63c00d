"""Batch scheduler + semantic selection cache.

Acceptance properties of the batching subsystem (docs/batching.md):

* a batch of overlapping queries reads each region once through the
  server caches, and equals the same queries executed sequentially on one
  deployment;
* a batch of non-overlapping queries is bit-identical to sequential
  execution (every QueryResult field, including simulated latency);
* under deterministic fault injection, the same seed reproduces the same
  batch run bit for bit;
* semantic-cache narrowing equals a fresh evaluation for any nested
  interval pair (hypothesis property).
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultConfig, FaultPlan
from repro.interval import Interval
from repro.obs import MetricsRegistry
from repro.query import (
    PDCquery_and,
    PDCquery_create,
    PDCquery_execute_batch,
    QueryEngine,
    QueryScheduler,
    QuerySpec,
    SelectionCache,
)
from repro.query.ast import Condition, combine_and
from repro.query.scheduler import _interval_key
from repro.query.selection import Selection
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp

from tests.conftest import make_system


def cond(name, op, value):
    return Condition(
        object_name=name, op=QueryOp(op), pdc_type=PDCType.FLOAT, value=value
    )


def fresh_deployment(metrics=None, **kwargs):
    """A brand-new deployment each call: cold caches, zeroed clocks, and
    the same seeded data every time."""
    rng = np.random.default_rng(12345)
    sysm = make_system(metrics=metrics, **kwargs)
    n = 1 << 14
    sysm.create_object("energy", rng.gamma(2.0, 0.7, n).astype(np.float32))
    sysm.create_object("x", (rng.random(n) * 300.0).astype(np.float32))
    return sysm


def fingerprint(res):
    """Every observable field of a QueryResult (bit-identity check)."""
    return (
        res.nhits,
        res.selection.coords.tobytes() if res.selection is not None else None,
        res.elapsed_s,
        res.strategy,
        tuple(res.evaluation_order),
        res.regions_read,
        res.regions_pruned,
        res.regions_cached,
        res.index_reads,
        res.bytes_read_virtual,
        res.complete,
        res.timed_out,
        res.retries,
        res.failovers,
        tuple(sorted(res.server_errors)),
        tuple(sorted(res.lost_regions)),
        res.semantic_cache,
    )


OVERLAPPING = [cond("energy", ">", 0.5 + 0.25 * i) for i in range(8)]


class TestSharedScan:
    """A window's queries share region reads through the server caches."""

    def test_a_window_reads_each_region_once_through_the_caches(self):
        """Overlapping queries in one window read each region from storage
        once, and every result — answers, bytes, latency — equals the same
        queries executed one after another on one deployment."""
        engine = QueryEngine(fresh_deployment())
        sequential = [fingerprint(engine.execute(q)) for q in OVERLAPPING]

        sysm = fresh_deployment()
        sched = QueryScheduler(sysm, max_width=len(OVERLAPPING), use_selection_cache=False)
        results = sched.run(OVERLAPPING)
        assert len(sched.batches) == 1
        assert [fingerprint(r) for r in results] == sequential
        resident = sum(len(s.cache.entries()) for s in sysm.servers)
        assert sum(r.regions_read for r in results) == resident
        assert sum(r.regions_cached for r in results) > 0
        assert sched.batches[0].total_bytes_read_virtual == sum(
            r.bytes_read_virtual for r in results
        )

    def test_batch_metrics_recorded(self):
        registry = MetricsRegistry()
        sysm = fresh_deployment(metrics=registry)
        sched = QueryScheduler(sysm, max_width=8)
        sched.run(OVERLAPPING)
        assert registry.total("pdc_batches_total") == 1
        assert registry.total("pdc_semantic_cache_lookups_total") == len(OVERLAPPING)
        assert not [n for n in registry.names() if n.startswith("pdc_batch_s")]

    def test_saved_bytes_accounting(self):
        """A window's bytes are its queries' own; the names the benchmark
        reads for a batch-level pass stay, at zero."""
        sysm = fresh_deployment()
        sched = QueryScheduler(sysm, max_width=8, use_selection_cache=False)
        results = sched.run(OVERLAPPING)
        batch = sched.batches[0]
        assert batch.total_bytes_read_virtual == sum(r.bytes_read_virtual for r in results) > 0
        assert batch.shared_reads == 0 and batch.saved_bytes_virtual == 0.0

    def test_multi_object_and_full_scan_batches(self):
        """Conjuncts and FULL_SCAN windows answer as numpy does."""
        queries = [
            combine_and(cond("energy", ">", 1.0), cond("x", "<", 150.0)),
            combine_and(cond("energy", ">", 2.0), cond("x", "<", 100.0)),
        ]
        sysm = fresh_deployment()
        e, x = sysm.get_object("energy").data, sysm.get_object("x").data
        sched = QueryScheduler(sysm, max_width=4, use_selection_cache=False)
        res = sched.run(queries, strategy=Strategy.FULL_SCAN)
        assert res[0].nhits == int(((e > 1.0) & (x < 150.0)).sum())
        assert res[1].nhits == int(((e > 2.0) & (x < 100.0)).sum())
        assert sum(r.regions_cached for r in res) > 0

    def test_answers_match_ground_truth(self):
        sysm = fresh_deployment()
        e = sysm.get_object("energy").data
        sched = QueryScheduler(sysm, max_width=8)
        results = sched.run(OVERLAPPING)
        for q, res in zip(OVERLAPPING, results):
            truth = int((e > np.float32(q.value)).sum())
            assert res.nhits == truth

    def test_errors_are_isolated_per_query(self):
        sysm = fresh_deployment()
        engine = QueryEngine(sysm)
        good = QuerySpec(node=cond("energy", ">", 1.0))
        bad = QuerySpec(node=cond("nonexistent", ">", 1.0))
        batch = engine.execute_batch([good, bad, good])
        assert batch.results[0] is not None and batch.results[2] is not None
        assert batch.results[1] is None
        assert list(batch.errors) == [1]


class TestRetention:
    def test_a_windows_answers_die_with_its_caller(self):
        """The scheduler keeps each window's counters, not its answers: once
        the caller drops the results, their coordinates are freed."""
        sched = QueryScheduler(fresh_deployment(), max_width=4, use_selection_cache=False)
        results = sched.run(OVERLAPPING)
        refs = [weakref.ref(r.selection.coords) for r in results]
        del results
        gc.collect()
        assert [w.width for w in sched.batches] == [4, 4]
        assert [ref for ref in refs if ref() is not None] == []
        sched.close()

    def test_a_put_answer_dies_with_its_caller(self):
        """The cache records a computed answer's descriptor, not its
        coordinates: they are freed when the caller drops the result, and
        the first repeat builds the live answer."""
        sysm = fresh_deployment()
        sched = QueryScheduler(sysm, max_width=4)
        q = cond("energy", ">", 2.0)
        (res,) = sched.run([q])
        assert res.semantic_cache == "" and len(sched.selection_cache) == 1
        ref, nhits = weakref.ref(res.selection.coords), res.nhits
        del res
        gc.collect()
        assert ref() is None
        assert sched.selection_cache.coordinate_bytes() == 0
        (again,) = sched.run([q])
        assert (again.semantic_cache, again.nhits) == ("hit", nhits)
        assert sched.selection_cache.coordinate_bytes() == again.selection.coords.nbytes
        sched.close()


class TestBitIdentity:
    # Different objects -> provably disjoint region sets.
    DISJOINT = [cond("energy", "<", 0.2), cond("x", ">", 290.0)]

    def test_non_overlapping_batch_matches_sequential_bit_for_bit(self):
        sysm = fresh_deployment()
        engine = QueryEngine(sysm)
        sequential = [fingerprint(engine.execute(q)) for q in self.DISJOINT]

        sysm2 = fresh_deployment()
        sched = QueryScheduler(sysm2, max_width=8, use_selection_cache=False)
        batch = sched.run(self.DISJOINT)
        assert [fingerprint(r) for r in batch] == sequential

    def test_width_one_scheduler_matches_sequential(self):
        sysm = fresh_deployment()
        engine = QueryEngine(sysm)
        sequential = [fingerprint(engine.execute(q)) for q in OVERLAPPING]

        sysm2 = fresh_deployment()
        sched = QueryScheduler(sysm2, max_width=1, use_selection_cache=False)
        batched = sched.run(OVERLAPPING)
        assert [fingerprint(r) for r in batched] == sequential


class TestFaultDeterminism:
    FAULTY = FaultConfig(
        pfs_read_error_rate=0.1,
        pfs_slow_rate=0.1,
        server_slow_rate=0.2,
    )

    def _run(self, seed):
        sysm = fresh_deployment()
        sysm.set_fault_plan(FaultPlan(seed=seed, config=self.FAULTY))
        sched = QueryScheduler(sysm, max_width=8, use_selection_cache=False)
        results = sched.run(OVERLAPPING)
        window = sched.batches[0]
        return (
            [fingerprint(r) for r in results],
            window.elapsed_s,
            window.total_bytes_read_virtual,
        )

    def test_same_seed_same_batch(self):
        first = self._run(777)
        assert len(first[0]) == len(OVERLAPPING)
        assert first == self._run(777)

    def test_different_seed_may_differ_but_stays_sound(self):
        sysm = fresh_deployment()
        e = sysm.get_object("energy").data
        sysm.set_fault_plan(FaultPlan(seed=999, config=self.FAULTY))
        sched = QueryScheduler(sysm, max_width=8, use_selection_cache=False)
        results = sched.run(OVERLAPPING)
        for q, res in zip(OVERLAPPING, results):
            truth = int((e > np.float32(q.value)).sum())
            if res.complete:
                assert res.nhits == truth
            else:
                assert res.nhits <= truth


class TestSelectionCache:
    def test_exact_hit(self):
        sysm = fresh_deployment()
        cache = SelectionCache()
        iv = Interval(lo=1.0, lo_closed=False)
        e = sysm.get_object("energy").data
        truth = np.flatnonzero(iv.mask(e)).astype(np.int64)
        cache.put("energy", iv, Selection(truth, e.size))
        served = cache.fetch(sysm, "energy", iv)
        assert served is not None
        sel, kind, scanned = served
        assert kind == "hit" and scanned == 0
        assert np.array_equal(sel.coords, truth)
        assert cache.stats.hits == 1

    def test_narrowing_from_superset(self):
        sysm = fresh_deployment()
        cache = SelectionCache()
        e = sysm.get_object("energy").data
        outer = Interval(lo=0.5, lo_closed=False)
        inner = Interval(lo=2.0, lo_closed=False)
        outer_sel = np.flatnonzero(outer.mask(e)).astype(np.int64)
        cache.put("energy", outer, Selection(outer_sel, e.size))
        served = cache.fetch(sysm, "energy", inner)
        assert served is not None
        sel, kind, scanned = served
        assert kind == "narrowed" and scanned == outer_sel.size
        assert np.array_equal(sel.coords, np.flatnonzero(inner.mask(e)))
        # The narrowed answer was itself cached: exact hit on repeat.
        assert cache.fetch(sysm, "energy", inner)[1] == "hit"

    def test_smallest_covering_superset_preferred(self):
        sysm = fresh_deployment()
        cache = SelectionCache()
        e = sysm.get_object("energy").data
        big = Interval(lo=0.1, lo_closed=False)
        small = Interval(lo=1.5, lo_closed=False)
        for iv in (big, small):
            cache.put(
                "energy", iv,
                Selection(np.flatnonzero(iv.mask(e)).astype(np.int64), e.size),
            )
        _, kind, scanned = cache.fetch(
            sysm, "energy", Interval(lo=2.0, lo_closed=False)
        )
        assert kind == "narrowed"
        assert scanned == int(small.mask(e).sum())

    def test_open_endpoint_not_subsumed_by_closed_request(self):
        """(2, inf) cached must NOT serve [2, inf) — the closed request
        includes the boundary value the cached answer excluded."""
        sysm = fresh_deployment()
        cache = SelectionCache()
        e = sysm.get_object("energy").data
        open_iv = Interval(lo=2.0, lo_closed=False)
        cache.put(
            "energy", open_iv,
            Selection(np.flatnonzero(open_iv.mask(e)).astype(np.int64), e.size),
        )
        assert cache.fetch(sysm, "energy", Interval(lo=2.0, lo_closed=True)) is None

    def test_lru_eviction_per_object(self, monkeypatch):
        monkeypatch.setattr("repro.query.scheduler.MAX_ENTRIES_PER_OBJECT", 2)
        sysm = fresh_deployment()
        cache = SelectionCache()
        e = sysm.get_object("energy").data
        for lo in (1.0, 2.0, 3.0):
            iv = Interval(lo=lo, lo_closed=False)
            cache.put(
                "energy", iv,
                Selection(np.flatnonzero(iv.mask(e)).astype(np.int64), e.size),
            )
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest (lo=1.0) was evicted -> no exact entry, and neither
        # survivor covers it.
        assert cache.fetch(sysm, "energy", Interval(lo=1.0, lo_closed=False)) is None

    @pytest.mark.parametrize("bad", [float("nan"), 2.5, float("inf")], ids=["nan", "frac", "inf"])
    def test_window_width_must_be_a_count(self, bad):
        with pytest.raises(ValueError, match="max_width"):
            QueryScheduler(fresh_deployment(), max_width=bad)

    def test_stale_domain_dropped(self):
        sysm = fresh_deployment()
        cache = SelectionCache()
        iv = Interval(lo=1.0, lo_closed=False)
        cache.put("energy", iv, Selection(np.zeros(0, dtype=np.int64), 42))
        assert cache.fetch(sysm, "energy", iv) is None


class TestInvalidation:
    def test_object_rewrite_repairs_cached_selections(self):
        sysm = fresh_deployment()
        sched = QueryScheduler(sysm, max_width=4)
        q = cond("energy", ">", 2.0)
        first = sched.run([q])[0]
        assert first.semantic_cache == ""
        # Rewrite part of the object so the answer changes.  The cached
        # selection is kept, marked dirty for the written region, and
        # healed at fetch time by re-evaluating just that span — the
        # served answer must be bit-identical to a cold evaluation.
        obj = sysm.get_object("energy")
        sysm.update_object_region(
            "energy", 0, np.full(256, 100.0, dtype=np.float32)
        )
        again = sched.run([q])[0]
        assert again.semantic_cache == "repaired"
        assert again.nhits == int((obj.data > np.float32(2.0)).sum())
        assert again.nhits != first.nhits
        assert sched.selection_cache.stats.repaired == 1
        # A repaired entry is clean again: the next repeat is a pure hit.
        third = sched.run([q])[0]
        assert third.semantic_cache == "hit"
        assert third.nhits == again.nhits

    def test_region_scoped_write_keeps_unrelated_entry(self):
        # Satellite regression: a write to region 0 must not evict a
        # cached selection whose hits all live in the last region.  The
        # entry survives, is healed by rescanning only region 0's span
        # (not the whole object), and serves a bit-exact answer.
        sysm = fresh_deployment()
        obj = sysm.get_object("energy")
        sched = QueryScheduler(sysm, max_width=4)
        cache = sched.selection_cache
        iv = Interval(lo=1.0, lo_closed=False)
        coords = np.flatnonzero(iv.mask(obj.data)).astype(np.int64)
        cache._put_locked("energy", iv, Selection(coords, obj.n_elements))
        entry = cache._entries["energy"][_interval_key(iv)]
        sysm.update_object_region(
            "energy", 0, np.zeros(16, dtype=np.float32)
        )
        assert _interval_key(iv) in cache._entries["energy"]
        assert entry.dirty == [(0, int(obj.counts[0]))]
        served = cache.fetch(sysm, "energy", iv)
        assert served is not None
        sel, kind, scanned = served
        assert kind == "repaired"
        assert scanned == int(obj.counts[0])  # one region, not the object
        np.testing.assert_array_equal(
            sel.coords, np.flatnonzero(iv.mask(obj.data)).astype(np.int64)
        )

    def test_server_failure_clears_cache(self):
        sysm = fresh_deployment()
        sched = QueryScheduler(sysm, max_width=4)
        q = cond("energy", ">", 2.0)
        sched.run([q])
        assert len(sched.selection_cache) == 1
        sysm.fail_server(0)
        assert len(sched.selection_cache) == 0
        res = sched.run([q])[0]
        assert res.semantic_cache == ""
        assert res.nhits == int(
            (sysm.get_object("energy").data > np.float32(2.0)).sum()
        )

    def test_close_unregisters_hook(self):
        sysm = fresh_deployment()
        sched = QueryScheduler(sysm, max_width=4)
        sched.run([cond("energy", ">", 2.0)])
        sched.close()
        assert sched._on_invalidate not in sysm._invalidation_hooks
        # Further invalidation events must not touch the closed scheduler.
        before = len(sched.selection_cache)
        sysm.fail_server(0)
        assert len(sched.selection_cache) == before

    def test_semantic_hit_and_narrow_through_scheduler(self):
        sysm = fresh_deployment()
        e = sysm.get_object("energy").data
        sched = QueryScheduler(sysm, max_width=4)
        base = sched.run([cond("energy", ">", 1.0)])[0]
        assert base.semantic_cache == ""
        repeat = sched.run([cond("energy", ">", 1.0)])[0]
        assert repeat.semantic_cache == "hit"
        assert fingerprint(repeat)[0] == fingerprint(base)[0]
        narrowed = sched.run([cond("energy", ">", 3.0)])[0]
        assert narrowed.semantic_cache == "narrowed"
        assert narrowed.nhits == int((e > np.float32(3.0)).sum())
        # Cache-served queries read nothing.
        assert repeat.bytes_read_virtual == 0 and narrowed.bytes_read_virtual == 0
        assert repeat.regions_read == 0 and narrowed.regions_read == 0


#: Interval endpoints drawn from the bulk of the gamma(2, 0.7) data range.
_ENDPOINTS = st.floats(
    min_value=0.0, max_value=6.0, allow_nan=False, allow_infinity=False
)


class TestNarrowingProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        bounds=st.lists(_ENDPOINTS, min_size=4, max_size=4, unique=True),
        outer_closed=st.tuples(st.booleans(), st.booleans()),
        inner_closed=st.tuples(st.booleans(), st.booleans()),
    )
    def test_narrowed_equals_fresh_scan(self, bounds, outer_closed, inner_closed):
        """For any nested interval pair, filtering the cached superset's
        coordinates equals evaluating the narrow interval from scratch."""
        lo_o, lo_i, hi_i, hi_o = sorted(bounds)
        outer = Interval(
            lo=lo_o, hi=hi_o, lo_closed=outer_closed[0], hi_closed=outer_closed[1]
        )
        inner = Interval(
            lo=lo_i, hi=hi_i, lo_closed=inner_closed[0], hi_closed=inner_closed[1]
        )
        assert outer.covers(inner)

        sysm = fresh_deployment()
        e = sysm.get_object("energy").data
        cache = SelectionCache()
        cache.put(
            "energy", outer,
            Selection(np.flatnonzero(outer.mask(e)).astype(np.int64), e.size),
        )
        served = cache.fetch(sysm, "energy", inner)
        assert served is not None
        sel, kind, _ = served
        assert kind == "narrowed"
        assert np.array_equal(sel.coords, np.flatnonzero(inner.mask(e)))

    @settings(max_examples=30, deadline=None)
    @given(
        writes=st.lists(
            st.tuples(
                st.sampled_from(["overwrite", "append"]), st.integers(0, 2**20),
                st.integers(1, 1500), st.sampled_from(["rebuild", "delta"]),
            ),
            max_size=4,
        ),
        bounds=st.lists(st.integers(0, 60), min_size=4, max_size=4, unique=True),
        closed=st.tuples(*[st.booleans()] * 4),
    )
    def test_narrowed_equals_the_gather_path_after_writes(self, writes, bounds, closed):
        """On data laid out by value the live min/max settle most regions
        of a cached superset: kept whole, or dropped.  After any overwrite
        and append sequence the narrowed answer equals filtering every
        cached coordinate by its value, the gather path it replaced.  A
        superset dirtied by a write is repaired, never narrowed."""
        rng = np.random.default_rng(7)
        x = np.sort(rng.random(8192) * 60.0).astype(np.float32)
        x[4096:4608] = rng.random(512) * 60.0  # one region spans everything
        sysm = make_system(region_size_bytes=1 << 11)
        sysm.create_object("x", x)
        sched = QueryScheduler(sysm, max_width=1)
        cache = sched.selection_cache
        lo_o, lo_i, hi_i, hi_o = sorted(float(b) for b in bounds)
        outer = Interval(lo_o, hi_o, closed[0], closed[1])
        inner = Interval(lo_i, hi_i, closed[2], closed[3])

        def query(iv):
            return combine_and(
                cond("x", ">=" if iv.lo_closed else ">", iv.lo),
                cond("x", "<=" if iv.hi_closed else "<", iv.hi),
            )

        assert sched.run([query(outer)])[0].semantic_cache == ""
        for kind, offset, size, maintenance in writes:
            obj = sysm.get_object("x")
            values = np.sort(rng.random(size) * 60.0).astype(np.float32)
            if kind == "overwrite":
                offset %= obj.n_elements
                sysm.update_object_region(
                    "x", offset, values[: obj.n_elements - offset], maintenance=maintenance
                )
                assert cache.fetch(sysm, "x", inner) is None  # dirty: not narrowed
                assert sched.run([query(outer)])[0].semantic_cache == "repaired"
            else:
                sysm.append_to_object("x", values, maintenance=maintenance)
                assert sched.run([query(outer)])[0].semantic_cache == "repaired"
        data = sysm.get_object("x").data
        served = sched.run([query(outer)])[0]
        assert served.semantic_cache in ("hit", "repaired")
        cached = served.selection.coords
        gathered = cached[inner.mask(data[cached])]
        res = sched.run([query(inner)])[0]
        assert res.semantic_cache == "narrowed"
        assert np.array_equal(res.selection.coords, gathered)
        assert np.array_equal(gathered, np.flatnonzero(inner.mask(data)))


class TestApiBatch:
    def test_execute_batch_api(self):
        sysm = fresh_deployment()
        e = sysm.get_object("energy").data
        x = sysm.get_object("x").data
        eid = sysm.get_object("energy").meta.object_id
        xid = sysm.get_object("x").meta.object_id
        queries = [
            PDCquery_create(sysm, eid, ">", "float", 1.0),
            PDCquery_create(sysm, eid, ">", "float", 2.0),
            PDCquery_and(
                PDCquery_create(sysm, eid, ">", "float", 1.5),
                PDCquery_create(sysm, xid, "<", "float", 150.0),
            ),
        ]
        results = PDCquery_execute_batch(sysm, queries)
        assert results[0].nhits == int((e > np.float32(1.0)).sum())
        assert results[1].nhits == int((e > np.float32(2.0)).sum())
        assert results[2].nhits == int(((e > 1.5) & (x < 150.0)).sum())
        for q, res in zip(queries, results):
            assert q.last_result is res

    def test_rejects_foreign_queries(self):
        sysm = fresh_deployment()
        other = fresh_deployment()
        eid = other.get_object("energy").meta.object_id
        q = PDCquery_create(other, eid, ">", "float", 1.0)
        with pytest.raises(Exception):
            PDCquery_execute_batch(sysm, [q])

    def test_empty_batch(self):
        sysm = fresh_deployment()
        assert PDCquery_execute_batch(sysm, []) == []
