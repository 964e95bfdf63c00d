"""A sorted replica keeps answering after a write.

A covered write marks its coordinates dirty; a replica range is the
sorted run's clean positions plus the dirty coordinates whose live values
match (``repro.query.kernels.replica_coords``).  What holds it:

* replica ≡ truth: over any sequence of overwrites and appends to the key
  and its companion — lockstep and uneven, ties at the bounds, float32,
  float64 and int32 keys — PDC-SH, ``AUTO`` and cache narrowings equal the
  numpy model, equal the answers after a re-sort whenever the lengths
  agree, and the dirty set is the union of the committed spans
  (hypothesis; fixed seed in tier-1, random under the long profile);
* a single-condition PDC-SH run takes the element-count kernel rule: a
  run at or above ``REPLICA_RUN_SHARE`` of the straddling elements is
  masked by region runs, a shorter one is sorted, with one answer;
* dirty coordinates are charged as PDC-H reads a region — planned by
  ``AUTO``, read by the query and by ``get_data`` from the original
  regions — and a lost one is dropped from a ``complete=False`` answer.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PDCError
from repro.faults import FaultConfig, FaultPlan
from repro.interval import Interval
from repro.pdc.region import region_key
from repro.query import SelectionCache, kernels
from repro.query.ast import Condition, combine_and
from repro.query.executor import QueryEngine
from repro.query.planner import estimate_plan
from repro.query.selection import Selection
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp

from tests.conftest import make_system

N = 4096
TYPES = {"float32": PDCType.FLOAT, "float64": PDCType.DOUBLE, "int32": PDCType.INT}


def deployment(dtype, policy="mark_stale", threshold=0.25, seed=3):
    """``k`` keys a replica over ``c``; values on an integer grid so the
    bounds tie stored values."""
    rng = np.random.default_rng(seed)
    sysm = make_system(
        region_size_bytes=1 << 11, replica_staleness_policy=policy,
        replica_rebuild_threshold=threshold,
    )
    for name in ("k", "c"):
        sysm.create_object(name, rng.integers(0, 41, N).astype(dtype))
    sysm.build_sorted_replica("k", ["c"])
    return sysm


def conditions(name, iv, pdc_type):
    return [
        Condition(name, QueryOp(">=" if iv.lo_closed else ">"), pdc_type, iv.lo),
        Condition(name, QueryOp("<=" if iv.hi_closed else "<"), pdc_type, iv.hi),
    ]


def query(*parts):
    return reduce(combine_and, parts)


def interval(lo, hi, lo_closed, hi_closed):
    """``[lo, hi]`` with the given ends; a point is closed at both."""
    lo, hi = sorted((float(lo), float(hi)))
    point = lo == hi
    return Interval(lo, hi, lo_closed or point, hi_closed or point)


def answers(sysm, pdc_type, ivs):
    """Every door's answer to ``k`` in ``ivs[0]`` (and, when the lengths
    agree, ``c`` in ``ivs[1]``), checked against the live payload."""
    k, c = sysm.get_object("k"), sysm.get_object("c")
    engine = QueryEngine(sysm)
    single = query(*conditions("k", ivs[0], pdc_type))
    truth = np.flatnonzero(ivs[0].mask(k.data))
    got = {}
    for strategy in (Strategy.SORT_HIST, Strategy.AUTO):
        res = engine.execute(single, strategy=strategy)
        assert np.array_equal(res.selection.coords, truth), strategy
        got[strategy.name] = res.selection.coords
    cache = SelectionCache()
    outer = Interval(None, None)
    cache.put("k", outer, Selection(np.arange(k.n_elements), k.n_elements))
    sel, kind, _ = cache.fetch(sysm, "k", ivs[0])
    assert kind == "narrowed" and np.array_equal(sel.coords, truth)
    if k.n_elements == c.n_elements:
        joint = query(*conditions("k", ivs[0], pdc_type),
                      *conditions("c", ivs[1], pdc_type))
        truth = np.flatnonzero(ivs[0].mask(k.data) & ivs[1].mask(c.data))
        for strategy in (Strategy.SORT_HIST, Strategy.AUTO):
            res = engine.execute(joint, strategy=strategy)
            assert np.array_equal(res.selection.coords, truth), strategy
            got["joint", strategy.name] = res.selection.coords
    return got


class TestReplicaEqualsTruth:
    @settings(max_examples=25, deadline=None)
    @given(
        dtype=st.sampled_from(sorted(TYPES)),
        threshold=st.sampled_from([0.05, 1.0]),
        writes=st.lists(
            st.tuples(
                st.sampled_from([("k",), ("c",), ("k", "c")]),
                st.sampled_from(["overwrite", "append"]),
                st.integers(0, 2**20), st.integers(1, 700),
            ),
            max_size=5,
        ),
        bounds=st.lists(st.integers(0, 40), min_size=4, max_size=4),
        closed=st.tuples(*[st.booleans()] * 4),
    )
    def test_every_door_equals_the_model(self, dtype, threshold, writes, bounds, closed):
        sysm = deployment(dtype, threshold=threshold)
        pdc_type = TYPES[dtype]
        rng = np.random.default_rng(bounds)
        group, dirty = sysm.replicas["k"], set()
        for names, kind, offset, size in writes:
            values = rng.integers(0, 41, size).astype(dtype)
            for name in names:
                n = sysm.get_object(name).n_elements
                if kind == "overwrite":
                    offset %= n
                    sysm.update_object_region(name, offset, values[: n - offset])
                    span = (offset, min(n, offset + size))
                else:
                    sysm.append_to_object(name, values)
                    span = (n, n + size)
                if sysm.replicas["k"] is not group:  # folded by a re-sort
                    group, dirty = sysm.replicas["k"], set()
                else:
                    dirty.update(range(span[0], min(span[1], group.replica.n_elements)))
        replica = group.replica
        assert replica.dirty.tolist() == sorted(dirty)
        ivs = [interval(*bounds[:2], *closed[:2]), interval(*bounds[2:], *closed[2:])]
        before = answers(sysm, pdc_type, ivs)
        lengths = {sysm.get_object(n).n_elements for n in ("k", "c")}
        if len(lengths) > 1:
            with pytest.raises(PDCError):
                sysm.refresh_sorted_replica("k")
            assert sysm.replicas["k"] is group
            return
        sysm.refresh_sorted_replica("k")
        assert sysm.replicas["k"].replica.dirty.size == 0
        after = answers(sysm, pdc_type, ivs)
        assert before.keys() == after.keys()
        assert all(np.array_equal(before[key], after[key]) for key in before)


@pytest.fixture
def run_calls(monkeypatch):
    calls = []
    real = kernels.run_coords

    def spy(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "run_coords", spy)
    return calls


class TestKernelRule:
    """A single-condition PDC-SH conjunct answers through
    ``kernels.interval_coords``: the element count picks the kernel."""

    @pytest.mark.parametrize("written", [False, True])
    def test_the_share_picks_the_kernel(self, run_calls, written):
        sysm = deployment("float32")
        if written:
            sysm.update_object_region("k", 100, np.full(300, 20, dtype=np.float32))
        obj = sysm.get_object("k")
        replica = sysm.replicas["k"].replica
        engine = QueryEngine(sysm)
        seen = set()
        for hi in range(1, 41, 3):
            iv = Interval(0.0, float(hi))
            run_calls.clear()
            res = engine.execute(
                query(*conditions("k", iv, PDCType.FLOAT)),
                strategy=Strategy.SORT_HIST,
            )
            assert np.array_equal(res.selection.coords, np.flatnonzero(iv.mask(obj.data)))
            start, stop = replica.search_range(0.0, float(hi))
            straddling = int(obj.counts.sum())  # no region lies inside
            sorts = stop - start + replica.dirty.size < kernels.REPLICA_RUN_SHARE * straddling
            assert run_calls == ([(start, stop)] if sorts else []), hi
            seen.add(sorts)
        assert seen == {True, False}


class TestDirtyCharges:
    def test_auto_prices_the_dirty_regions(self):
        sysm = deployment("float32")
        node = query(*conditions("k", Interval(3.0, 4.0), PDCType.FLOAT))
        clean = estimate_plan(sysm, node, Strategy.SORT_HIST).est_seconds
        # Rewriting the same values leaves every histogram as it was: only
        # the dirty set moves the estimate.
        sysm.update_object_region("k", 0, sysm.get_object("k").data[:64].copy())
        assert estimate_plan(sysm, node, Strategy.SORT_HIST).est_seconds > clean

    def test_the_query_and_get_data_read_the_dirty_regions(self):
        sysm = deployment("float32")
        engine = QueryEngine(sysm)
        sysm.update_object_region("k", 1000, np.full(8, 3, dtype=np.float32))
        rid = 1000 // sysm.get_object("k").region_elements
        node = query(*conditions("k", Interval(3.0, 3.0), PDCType.FLOAT))
        res = engine.execute(node, strategy=Strategy.SORT_HIST)
        resident = {key for s in sysm.servers for key, _ in s.cache.entries()}
        assert region_key("k", rid) in resident
        assert not any(key.startswith("k:orig") and key != region_key("k", rid)
                       for key in resident)
        for s in sysm.servers:
            s.drop_caches()
        got = engine.get_data(res.selection, "c", strategy=Strategy.SORT_HIST)
        assert np.array_equal(got.values, sysm.get_object("c").data[res.selection.coords])
        resident = {key for s in sysm.servers for key, _ in s.cache.entries()}
        assert region_key("c", rid) in resident

    def test_a_lost_dirty_region_degrades_the_answer(self):
        sysm = deployment("float32")
        sysm.update_object_region("k", 1000, np.full(8, 3, dtype=np.float32))
        truth = np.flatnonzero(sysm.get_object("k").data == np.float32(3.0))
        sysm.set_fault_plan(FaultPlan(seed=1, config=FaultConfig(pfs_read_error_rate=1.0)))
        res = QueryEngine(sysm).execute(
            query(*conditions("k", Interval(3.0, 3.0), PDCType.FLOAT)),
            strategy=Strategy.SORT_HIST,
        )
        assert not res.complete
        assert np.isin(res.selection.coords, truth).all()
        assert not np.isin(np.arange(1000, 1008), res.selection.coords).any()
