"""A cached answer costs what it returns.

``SelectionCache.fetch`` answers an exact hit and a narrowing with the
engine's own kernels on the live payload
(``repro.query.kernels.interval_coords``): a fresh replica keyed by the
object gives its sorted run while the run is short, region runs otherwise.
An entry keeps the coordinates only from its first exact serve on, and
every later hit hands back that memoized selection.  What holds it:

* the narrowed answer equals the gather path it replaced — every cached
  coordinate of the superset filtered by its live value — on objects with
  a clean, a written or no replica and on a replica companion, after
  overwrites and lockstep appends under both maintenance modes
  (hypothesis; fixed seed in tier-1, random under the long profile);
* the kernel is chosen by counting elements — a written replica's dirty
  coordinates count with its run — and a companion's replica is never
  read;
* the first serve of an entry builds one selection and every later hit
  constructs nothing, and what the cache memoizes cannot be edited by one
  caller under another's feet;
* a superset that serves a narrowing is used, in LRU order;
* a scripted sequence of hits, narrowings, repairs, an append and LRU
  evictions returns the kinds, charges and counters recorded when every
  entry kept its coordinates.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interval import Interval
from repro.query import QueryScheduler, SelectionCache
from repro.query import kernels
from repro.query.ast import Condition, combine_and
from repro.query.planner import surviving_regions
from repro.query.selection import Selection
from repro.types import PDCType, QueryOp

from tests.conftest import make_system

N = 8192


def _grid(values):
    """Quarter steps: bounds drawn from integers tie stored values often."""
    return (np.round(np.asarray(values) * 4) / 4).astype(np.float32)


def deployment():
    """``k`` keys a sorted replica with companion ``c``; ``p`` has none and
    is laid out by value except one region that spans everything, so its
    min/max settle most regions (covered or pruned) and one straddles."""
    rng = np.random.default_rng(11)
    p = _grid(np.sort(rng.random(N) * 60.0))
    p[4096:4608] = _grid(rng.random(512) * 60.0)
    sysm = make_system(region_size_bytes=1 << 11, replica_staleness_policy="mark_stale")
    sysm.create_object("k", _grid(rng.random(N) * 60.0))
    sysm.create_object("c", _grid(rng.random(N) * 60.0))
    sysm.create_object("p", p)
    sysm.build_sorted_replica("k", ["c"])
    return sysm


def cond(name, op, value):
    return Condition(object_name=name, op=QueryOp(op), pdc_type=PDCType.FLOAT, value=value)


def query(name, iv):
    return combine_and(
        cond(name, ">=" if iv.lo_closed else ">", iv.lo),
        cond(name, "<=" if iv.hi_closed else "<", iv.hi),
    )


def live(sysm, name, iv):
    return np.flatnonzero(iv.mask(sysm.get_object(name).data)).astype(np.int64)


def gather(sysm, name, cached, iv):
    """The narrowing the cache used to run: every cached coordinate of the
    superset, filtered by its live value."""
    return cached[iv.mask(sysm.get_object(name).data[cached])]


@pytest.fixture
def kernel_calls(monkeypatch):
    """Names of the kernels ``interval_coords`` ran, in order."""
    calls = []
    for name in ("run_coords", "mask_coords"):
        real = getattr(kernels, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(kernels, name, spy)
    return calls


def narrow(sysm, name, outer, inner):
    """Cache the live answer of ``outer`` and narrow it to ``inner``."""
    cache = SelectionCache()
    cache.put(name, outer, Selection(live(sysm, name, outer), sysm.get_object(name).n_elements))
    sel, kind, scanned = cache.fetch(sysm, name, inner)
    assert kind == "narrowed"
    assert scanned == live(sysm, name, outer).size  # the charge is unchanged
    return sel


class TestNarrowingProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        target=st.sampled_from(["k", "c", "p"]),
        writes=st.lists(
            st.tuples(
                st.sampled_from(["overwrite", "append"]), st.integers(0, 2**20),
                st.integers(1, 1500), st.sampled_from(["rebuild", "delta"]),
            ),
            max_size=3,
        ),
        refresh=st.booleans(),
        bounds=st.lists(st.integers(0, 60), min_size=4, max_size=4, unique=True),
        closed=st.tuples(*[st.booleans()] * 4),
    )
    def test_narrowed_equals_the_gather_path(self, target, writes, refresh, bounds, closed):
        """Nested intervals with open and closed ends, on the replica's key
        (clean, or dirty after a write), its companion and a plain object,
        after overwrites of the target and appends to all three objects:
        the narrowed answer equals filtering the cached superset by value,
        and the live answer."""
        sysm = deployment()
        sched = QueryScheduler(sysm, max_width=1)
        cache = sched.selection_cache
        rng = np.random.default_rng(bounds)
        lo_o, lo_i, hi_i, hi_o = sorted(float(b) for b in bounds)
        outer = Interval(lo_o, hi_o, closed[0], closed[1])
        inner = Interval(lo_i, hi_i, closed[2], closed[3])
        assert sched.run([query(target, outer)])[0].semantic_cache == ""
        for kind, offset, size, maintenance in writes:
            values = _grid(rng.random(size) * 60.0)
            if kind == "overwrite":
                n = sysm.get_object(target).n_elements
                offset %= n
                sysm.update_object_region(
                    target, offset, values[: n - offset], maintenance=maintenance
                )
                assert cache.fetch(sysm, target, inner) is None  # dirty: not narrowed
                assert sched.run([query(target, outer)])[0].semantic_cache == "repaired"
            else:
                for name in ("k", "c", "p"):
                    sysm.append_to_object(name, values, maintenance=maintenance)
                assert sched.run([query(target, outer)])[0].semantic_cache == "repaired"
        if refresh:  # lockstep appends: the lengths agree
            sysm.refresh_sorted_replica("k")
        served = sched.run([query(target, outer)])[0]
        assert served.semantic_cache in ("hit", "repaired")
        want = gather(sysm, target, served.selection.coords, inner)
        res = sched.run([query(target, inner)])[0]
        assert res.semantic_cache == "narrowed"
        assert np.array_equal(res.selection.coords, want)
        assert np.array_equal(want, live(sysm, target, inner))


class TestKernelChoice:
    """The replica answers only while its run and its dirty coordinates
    are fewer than ``REPLICA_RUN_SHARE`` of the straddling elements;
    nothing but a replica keyed by the object is ever searched."""

    OUTER = Interval(10.0, 50.0)

    def test_a_narrow_run_takes_the_replica(self, kernel_calls):
        sysm = deployment()
        inner = Interval(20.0, 21.0, lo_closed=False)
        sel = narrow(sysm, "k", self.OUTER, inner)
        assert kernel_calls == ["run_coords"]
        assert np.array_equal(sel.coords, live(sysm, "k", inner))

    def test_a_run_above_the_crossover_takes_region_runs(self, kernel_calls):
        sysm = deployment()
        inner = Interval(12.0, 45.0, hi_closed=False)
        sel = narrow(sysm, "k", self.OUTER, inner)
        assert kernel_calls == ["mask_coords"]
        assert np.array_equal(sel.coords, live(sysm, "k", inner))

    def test_a_written_replica_still_answers(self, kernel_calls):
        sysm = deployment()
        obj = sysm.get_object("k")
        # Move a region's values into the narrow interval (below the
        # rebuild threshold): the sorted base misses them, the dirty
        # coordinates' live values hold them.
        sysm.update_object_region("k", 0, np.full(512, 20.5, dtype=np.float32))
        assert sysm.replicas["k"].replica.dirty.tolist() == list(range(512))
        inner = Interval(20.0, 21.0)
        sel = narrow(sysm, "k", self.OUTER, inner)
        assert kernel_calls == ["run_coords"]
        assert sel.nhits > 512
        assert np.array_equal(sel.coords, live(sysm, "k", inner))
        assert np.array_equal(sel.coords, np.flatnonzero(inner.mask(obj.data)))

    def test_a_companion_takes_region_runs(self, kernel_calls):
        sysm = deployment()
        inner = Interval(20.0, 21.0)
        sel = narrow(sysm, "c", self.OUTER, inner)
        assert kernel_calls == ["mask_coords"]
        assert np.array_equal(sel.coords, live(sysm, "c", inner))

    def test_no_replica_takes_region_runs(self, kernel_calls):
        sysm = deployment()
        inner = Interval(20.0, 21.0)
        sel = narrow(sysm, "p", self.OUTER, inner)
        assert kernel_calls == ["mask_coords"]
        assert np.array_equal(sel.coords, live(sysm, "p", inner))

    def test_the_choice_counts_elements(self, kernel_calls):
        """Across run lengths the kernel flips where the run reaches
        ``REPLICA_RUN_SHARE`` of the elements in straddling regions."""
        sysm = deployment()
        obj = sysm.get_object("k")
        replica = sysm.replicas["k"].replica
        seen = set()
        for hi in np.arange(10.25, 50.0, 0.75):
            inner = Interval(10.0, float(hi))
            kernel_calls.clear()
            got = kernels.interval_coords(sysm, obj, inner)
            survivors, covered, _ = surviving_regions(obj, inner)
            straddling = int(obj.counts[survivors[~covered]].sum())
            start, stop = replica.search_range(10.0, float(hi), True, True)
            want = "run_coords" if stop - start < kernels.REPLICA_RUN_SHARE * straddling else "mask_coords"
            assert kernel_calls == [want], hi
            assert np.array_equal(got, live(sysm, "k", inner)), hi
            seen.add(want)
        assert seen == {"run_coords", "mask_coords"}


class TestSharedAnswers:
    """One memoized selection serves every caller: nobody can change it."""

    def test_an_exact_hit_constructs_nothing(self, monkeypatch):
        """The first serve builds the one selection every later hit hands
        back; the answer that was put is not kept."""
        sysm = deployment()
        cache = SelectionCache()
        iv = Interval(10.0, 50.0)
        stored = Selection(live(sysm, "k", iv), N)
        cache.put("k", iv, stored)
        built = []
        real = Selection.__post_init__
        monkeypatch.setattr(
            Selection, "__post_init__", lambda self: (built.append(1), real(self))[1]
        )
        first, kind, scanned = cache.fetch(sysm, "k", iv)
        assert (first, kind, scanned) == (stored, "hit", 0)
        assert first is not stored
        assert built == [1]
        for _ in range(3):
            sel, kind, scanned = cache.fetch(sysm, "k", iv)
            assert (kind, scanned) == ("hit", 0)
            assert sel is first
        assert built == [1]

    @pytest.mark.parametrize("kind", ["first", "hit", "narrowed", "repaired"])
    def test_an_in_place_edit_raises(self, kind):
        """A caller that edits its answer's coordinates in place used to
        edit the cache: the next exact repeat raised ``SelectionError`` or,
        with the edit still sorted, served the edited coordinates."""
        sysm = deployment()
        sched = QueryScheduler(sysm, max_width=1)
        iv = Interval(10.0, 50.0)
        res = sched.run([query("p", iv)])[0]
        if kind == "narrowed":
            iv = Interval(20.0, 30.0)
        elif kind == "repaired":
            sysm.update_object_region("p", 0, np.full(64, 15.0, dtype=np.float32))
        if kind != "first":
            res = sched.run([query("p", iv)])[0]
            assert res.semantic_cache == kind
        with pytest.raises(ValueError, match="read-only"):
            res.selection.coords[-1] -= 1
        again = sched.run([query("p", iv)])[0]
        assert again.semantic_cache == "hit"
        assert np.array_equal(again.selection.coords, live(sysm, "p", iv))

    def test_an_attribute_reassignment_raises(self):
        sysm = deployment()
        sched = QueryScheduler(sysm, max_width=1)
        iv = Interval(10.0, 50.0)
        sched.run([query("p", iv)])
        first = sched.run([query("p", iv)])[0]
        hit = sched.run([query("p", iv)])[0]
        assert first.semantic_cache == hit.semantic_cache == "hit"
        assert hit.selection is first.selection
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.selection.coords = np.arange(3, dtype=np.int64)
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.selection.domain_size = 3
        again = sched.run([query("p", iv)])[0]
        assert np.array_equal(again.selection.coords, live(sysm, "p", iv))


class TestNarrowingUsesItsSuperset:
    def test_a_served_superset_is_not_evicted_by_its_narrowing(self, monkeypatch):
        """With room for two entries, holding [0, 50] then [60, 70]: the
        narrowing's own insert evicted [0, 50], the superset it had just
        used, so [1, 2], [3, 4], [5, 6] went narrowed, miss, miss."""
        monkeypatch.setattr("repro.query.scheduler.MAX_ENTRIES_PER_OBJECT", 2)
        sysm = deployment()
        cache = SelectionCache()
        for lo, hi in ((0.0, 50.0), (60.0, 70.0)):
            iv = Interval(lo, hi)
            cache.put("p", iv, Selection(live(sysm, "p", iv), N))
        kinds = []
        for lo in (1.0, 3.0, 5.0):
            served = cache.fetch(sysm, "p", Interval(lo, lo + 1.0))
            kinds.append(served[1] if served else "miss")
        assert kinds == ["narrowed"] * 3
        assert cache.stats.narrowed == 3 and cache.stats.misses == 0


class TestServeSequence:
    """The kinds, charges and counters of a scripted sequence, recorded when
    every entry kept its coordinates from its put on: exact hits,
    narrowings, repairs after overwrites, an append extension and LRU
    evictions (three entries per object).  Each step is ``(kind, scanned,
    nhits)``; a narrowing's ``scanned`` is its superset's hit count, so a
    narrowing from a repaired entry checks that count was kept in sync."""

    SEQUENCE = [
        ("miss", 0, 5356), ("hit", 0, 5356), ("narrowed", 5356, 1400),
        ("hit", 0, 1400), ("narrowed", 1400, 353), ("miss", 0, 1516),
        ("repaired", 512, 1700), ("narrowed", 1516, 421), ("repaired", 700, 1817),
        ("hit", 0, 1817), ("narrowed", 1817, 185), ("miss", 0, 8892),
        ("narrowed", 8892, 6122), ("narrowed", 6122, 676), ("miss", 0, 5954),
        ("narrowed", 5954, 185), ("hit", 0, 185), ("repaired", 512, 247),
        ("repaired", 512, 5971), ("narrowed", 247, 177),
    ]
    STATS = {
        "hits": 4, "narrowed": 8, "misses": 4, "inserts": 12, "evictions": 6,
        "invalidations": 0, "marked_dirty": 8, "repaired": 4,
    }

    def test_kinds_charges_and_counters_repeat(self, monkeypatch):
        monkeypatch.setattr("repro.query.scheduler.MAX_ENTRIES_PER_OBJECT", 3)
        sysm = deployment()
        cache = SelectionCache()
        QueryScheduler(sysm, selection_cache=cache)  # hooks the cache to writes
        seq = []

        def serve(name, lo, hi):
            iv = Interval(lo, hi)
            want = live(sysm, name, iv)
            served = cache.fetch(sysm, name, iv)
            if served is None:
                cache.put(name, iv, Selection(want, sysm.get_object(name).n_elements))
                seq.append(("miss", 0, want.size))
                return
            sel, kind, scanned = served
            assert np.array_equal(sel.coords, want)
            seq.append((kind, scanned, sel.nhits))

        for lo, hi in ((10.0, 50.0), (10.0, 50.0), (20.0, 30.0), (20.0, 30.0), (22.0, 24.0)):
            serve("p", lo, hi)
        sysm.update_object_region("p", 0, np.full(300, 23.0, dtype=np.float32))
        for lo, hi in ((21.0, 29.0), (20.0, 30.0), (23.0, 23.5)):
            serve("p", lo, hi)
        for name in ("k", "c", "p"):
            sysm.append_to_object(name, np.linspace(0.0, 60.0, 700, dtype=np.float32))
        for lo, hi in ((20.0, 30.0), (20.0, 30.0), (25.0, 26.0), (0.0, 60.0),
                       (10.0, 50.0), (22.0, 24.0)):
            serve("p", lo, hi)
        for lo, hi in ((10.0, 50.0), (20.0, 21.0), (20.0, 21.0)):
            serve("k", lo, hi)
        sysm.update_object_region("k", 512, np.full(64, 20.5, dtype=np.float32))
        for lo, hi in ((20.0, 21.0), (10.0, 50.0), (20.25, 20.75)):
            serve("k", lo, hi)
        assert seq == self.SEQUENCE
        assert dataclasses.asdict(cache.stats) == self.STATS
