"""A request the semantic cache can serve costs only its lookup.

``execute_batch`` takes each query's semantic key first and asks the cache
to serve it (``SelectionCache.fetch``); only a miss is planned and
executed.  An append extends a cached answer: the invalidation hook
records the object's element count on each entry, the growth is a dirty
span, and ``fetch`` repairs the exact entry over the merged spans.  What
holds it:

* a window of one cached hit and one miss prices only the miss, once, and
  bills the hit no bytes;
* the classification ``fetch`` runs (``_lookup_locked``) changes no
  counter and no LRU position, and agrees with ``fetch``;
* a query whose entry an earlier query of the window evicts still executes
  and returns the live answer;
* after an append the exact entry is ``"repaired"`` over the merged dirty
  spans, equal to numpy on the live payload;
* however often one region is written before a fetch, an entry holds one
  span for it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.interval import Interval
from repro.query import QueryScheduler, QuerySpec, SelectionCache
from repro.query import planner
from repro.query.ast import Condition
from repro.query.scheduler import _interval_key
from repro.query.selection import Selection
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp

from tests.conftest import make_system

N = 1 << 14  # 8 regions of 2,048 float32 elements


def deployment():
    rng = np.random.default_rng(12345)
    sysm = make_system()
    sysm.create_object("energy", rng.gamma(2.0, 0.7, N).astype(np.float32))
    sysm.create_object("x", (rng.random(N) * 300.0).astype(np.float32))
    return sysm


def cond(name, op, value):
    return Condition(object_name=name, op=QueryOp(op), pdc_type=PDCType.FLOAT, value=value)


def auto(node):
    return QuerySpec(node, strategy=Strategy.AUTO)


def live(sysm, iv, name="energy"):
    return np.flatnonzero(iv.mask(sysm.get_object(name).data)).astype(np.int64)


def cached(cache, sysm, iv, name="energy"):
    """Put the live answer of ``iv``; returns its entry."""
    cache.put(name, iv, Selection(live(sysm, iv, name), sysm.get_object(name).n_elements))
    return cache._entries[name][_interval_key(iv)]


@pytest.fixture
def pricings(monkeypatch):
    """Number of ``planner.choose_strategy`` calls so far."""
    calls = [0]
    real = planner.choose_strategy

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(planner, "choose_strategy", counting)
    return calls


class TestLookupBeforePlanning:
    def test_a_hit_is_not_planned_and_shares_no_bytes(self, pricings):
        """Energy > 2 cached, energy < 1 not: the hit reads nothing and is
        not priced; the miss is priced once, at execution."""
        sysm = deployment()
        sched = QueryScheduler(sysm, max_width=4)
        hit, miss = auto(cond("energy", ">", 2.0)), auto(cond("energy", "<", 1.0))
        sched.execute_window([hit])
        sysm.drop_all_caches()
        pricings[0] = 0
        batch = sched.execute_window([hit, miss])
        served, executed = batch.results
        assert (served.semantic_cache, executed.semantic_cache) == ("hit", "")
        assert served.bytes_read_virtual == 0.0
        assert batch.total_bytes_read_virtual == executed.bytes_read_virtual > 0.0
        assert pricings[0] == 1
        e = sysm.get_object("energy").data
        assert served.nhits == int((e > np.float32(2.0)).sum())
        assert executed.nhits == int((e < np.float32(1.0)).sum())

    def test_the_lookup_changes_nothing_and_agrees_with_fetch(self):
        sysm = deployment()
        cache = SelectionCache()
        wide, other = Interval(1.0, 4.0), Interval(5.0, 6.0)
        cached(cache, sysm, wide)
        cached(cache, sysm, other)
        cache.put("energy", Interval(0.0, 9.0), Selection(np.zeros(0, dtype=np.int64), 42))
        before = dataclasses.asdict(cache.stats)
        order = list(cache._entries["energy"])
        probes = [
            ("energy", wide, True),  # exact
            ("energy", Interval(2.0, 3.0), True),  # narrowed from wide
            ("energy", Interval(0.5, 2.0), False),  # not covered
            ("energy", Interval(0.0, 9.0), False),  # exact, but missed a growth
            ("x", wide, False),  # no entries
            ("nope", wide, False),  # unknown object
        ]
        for name, iv, serves in probes:
            assert (cache._lookup_locked(sysm, name, iv) is not None) is serves
        assert dataclasses.asdict(cache.stats) == before
        assert list(cache._entries["energy"]) == order
        for name, iv, serves in probes:
            assert (cache.fetch(sysm, name, iv) is not None) is serves

    def test_an_entry_evicted_in_the_window_executes(self, monkeypatch):
        """With room for one entry per object, the miss's insert evicts the
        entry the second query was going to be served from."""
        monkeypatch.setattr("repro.query.scheduler.MAX_ENTRIES_PER_OBJECT", 1)
        sysm = deployment()
        sched = QueryScheduler(sysm, selection_cache=SelectionCache())
        first, evicted = auto(cond("energy", "<", 1.0)), auto(cond("energy", ">", 2.0))
        sched.execute_window([evicted])
        batch = sched.execute_window([first, evicted])
        assert [r.semantic_cache for r in batch.results] == ["", ""]
        assert batch.semantic_misses == 2 and not batch.errors
        e = sysm.get_object("energy").data
        assert batch.results[1].nhits == int((e > np.float32(2.0)).sum())
        assert np.array_equal(
            batch.results[1].selection.coords, np.flatnonzero(e > np.float32(2.0))
        )


class TestAppendRepair:
    def test_an_append_extends_the_exact_entry(self):
        sysm = deployment()
        cache = QueryScheduler(sysm).selection_cache
        iv = Interval(2.0, None, lo_closed=False)
        entry = cached(cache, sysm, iv)
        obj = sysm.get_object("energy")
        sysm.update_object_region("energy", 7, np.full(5, 3.0, dtype=np.float32))
        sysm.append_to_object("energy", np.linspace(0.0, 6.0, 3000, dtype=np.float32))
        assert entry.domain == obj.n_elements == N + 3000
        assert entry.dirty == [(0, 2048), (N, N + 3000)]
        sel, kind, scanned = cache.fetch(sysm, "energy", iv)
        assert kind == "repaired"
        assert scanned == 2048 + 3000
        assert sel.domain_size == obj.n_elements
        assert np.array_equal(sel.coords, live(sysm, iv))
        assert cache.fetch(sysm, "energy", iv)[1:] == ("hit", 0)

    def test_a_growth_the_entry_did_not_see_is_dropped(self):
        """A cache that is not hooked to the system never records the
        growth: its entry is dropped, not extended."""
        sysm = deployment()
        cache = SelectionCache()
        iv = Interval(2.0, None, lo_closed=False)
        cached(cache, sysm, iv)
        sysm.append_to_object("energy", np.full(10, 3.0, dtype=np.float32))
        assert cache._lookup_locked(sysm, "energy", iv) is None
        assert cache.fetch(sysm, "energy", iv) is None
        assert len(cache) == 0


class TestDirtySpansMerged:
    def test_writes_to_one_region_leave_one_span(self):
        """Unmerged, the dirty list would grow by one span per write until
        a fetch."""
        sysm = deployment()
        cache = QueryScheduler(sysm).selection_cache
        iv = Interval(1.0, 3.0)
        entry = cached(cache, sysm, iv)
        for i in range(500):
            sysm.update_object_region(
                "energy", 2048 + (i * 37) % 2000, np.full(3, 0.5 + i % 4, dtype=np.float32)
            )
        assert entry.dirty == [(2048, 4096)]
        sel, kind, scanned = cache.fetch(sysm, "energy", iv)
        assert (kind, scanned) == ("repaired", 2048)
        assert np.array_equal(sel.coords, live(sysm, iv))
