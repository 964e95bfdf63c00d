"""Stateful fuzzing of a whole deployment.

A hypothesis state machine drives a PDCSystem through random interleaved
operations — imports, overwrites and appends under both maintenance
modes, index/replica builds and drops, index compaction, server
failures/recoveries, cache drops, and queries under every strategy —
while holding the system to its core invariants:

* every query answer equals a numpy model kept alongside;
* simulated clocks never go backwards;
* derived state (extents, region min/max, histogram totals, index
  rows) always matches the model data;
* what a write maintains piecewise equals the whole rebuilt: the global
  histogram a from-scratch merge, the object index and its file a fresh
  build over the payload (``assert_index_fresh``);
* the payload is a prefix view of its buffer (an append writes into spare
  capacity), and ``pfs.bytes_written`` counts every (re)written file
  whole;
* every sorted replica answers like the model — clean coordinates from
  its sorted run, dirty ones from the live payload — and its dirty set is
  the union of the spans written since its build;
* PDC-HI's answer from the probed bins (``kernels.index_coords``) equals
  the model.

The example budget comes from the hypothesis profile in
``tests/conftest.py`` (fixed-seed in tier-1, ``long`` in CI).

This is the net for cross-feature interactions the unit suites don't
enumerate (e.g. update → failed server → sorted query; one rule runs a
sorted query with server 0 crashed, which separate rules reach too
rarely at the fixed-seed budget).
"""

import numpy as np
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.interval import Interval
from repro.pdc import PDCConfig, PDCSystem
from repro.query.kernels import index_coords, replica_coords
from repro.query.planner import surviving_regions
from repro.query.ast import Condition, combine_and
from repro.query.executor import QueryEngine
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp
from tests.conftest import (
    assert_histograms_fresh,
    assert_index_fresh,
    assert_payload_is_a_prefix_view,
)

N = 1 << 11
N_SERVERS = 3


class PDCStateMachine(RuleBasedStateMachine):
    @initialize(
        seed=st.integers(0, 2**31),
        staleness=st.sampled_from(["drop", "mark_stale"]),
    )
    def setup(self, seed, staleness):
        self.rng = np.random.default_rng(seed)
        self.system = PDCSystem(
            PDCConfig(
                n_servers=N_SERVERS, region_size_bytes=1 << 10,
                replica_staleness_policy=staleness,
            )
        )
        self.engine = QueryEngine(self.system)
        self.model = {}  # name -> numpy array (ground truth)
        self.failed = set()
        # Each crashed server's busy categories when it crashed.
        self.busy_at_crash = {}
        self.last_elapsed = 0.0
        # The replica of ``a`` and the coordinates written since its build.
        self.group, self.dirty = None, set()
        # Every file the PFS (re)creates is accounted whole, by the size of
        # its joined bytes.
        pfs = self.system.pfs
        self.bytes_written = pfs.bytes_written
        real_create = pfs.create

        def create(path, *args, **kwargs):
            f = real_create(path, *args, **kwargs)
            self.bytes_written += pfs.cost.virtual_bytes(f.data.nbytes)
            return f

        pfs.create = create
        # Two starting objects so queries always have targets.
        for name in ("a", "b"):
            data = self.rng.gamma(2.0, 0.7, N).astype(np.float32)
            self.system.create_object(name, data)
            self.model[name] = data.copy()

    # ------------------------------------------------------------- mutations
    @rule(
        name=st.sampled_from(["a", "b"]),
        offset=st.integers(0, N - 64),
        value=st.floats(min_value=0.0, max_value=10.0, allow_nan=False, width=32),
        length=st.integers(1, 64),
        maintenance=st.sampled_from(["rebuild", "delta"]),
    )
    def update_region(self, name, offset, value, length, maintenance):
        payload = np.full(length, value, dtype=np.float32)
        self.system.update_object_region(
            name, offset, payload, maintenance=maintenance
        )
        self.model[name][offset : offset + length] = payload
        self.track_dirty(offset, offset + length)

    def track_dirty(self, start, stop):
        """Model the dirty set: a (re)built or dropped group starts over,
        a kept one gains the written base coordinates."""
        group = self.system.replicas.get("a")
        if group is not self.group:
            self.group, self.dirty = group, set()
        elif group is not None:
            self.dirty.update(range(start, min(stop, group.replica.n_elements)))

    @rule(
        value=st.floats(min_value=0.0, max_value=10.0, allow_nan=False, width=32),
        length=st.integers(1, 300),  # up to a region and a bit (256 f32)
        maintenance=st.sampled_from(["rebuild", "delta"]),
    )
    def append(self, value, length, maintenance):
        """``a`` and ``b`` grow in lockstep: a joint query needs equal
        dimensions."""
        payload = np.full(length, value, dtype=np.float32)
        for name in ("a", "b"):
            n = self.model[name].size
            self.system.append_to_object(name, payload, maintenance=maintenance)
            self.model[name] = np.concatenate([self.model[name], payload])
            self.track_dirty(n, n + length)

    @rule(name=st.sampled_from(["a", "b"]), rid=st.integers(0, 1 << 16))
    def compact(self, name, rid):
        obj = self.system.get_object(name)
        if obj.indexes is not None:
            self.system.compact_region_index(name, rid % obj.n_regions)

    @rule(name=st.sampled_from(["a", "b"]))
    def build_index(self, name):
        self.system.build_index(name)

    @rule()
    def build_replica(self):
        if "a" not in self.system.replicas:
            self.system.build_sorted_replica("a", ["b"])
            self.track_dirty(0, 0)

    @rule()
    def refresh_replica(self):
        """Fold the dirty set into a new base (``a`` and ``b`` are the
        same length between rules)."""
        if "a" in self.system.replicas:
            self.system.refresh_sorted_replica("a")
            self.track_dirty(0, 0)

    @rule(sid=st.integers(0, N_SERVERS - 1))
    def fail_server(self, sid):
        if sid not in self.failed and len(self.failed) < N_SERVERS - 1:
            self.system.fail_server(sid)
            self.failed.add(sid)
            self.busy_at_crash[sid] = self.busy(sid)

    @rule(sid=st.integers(0, N_SERVERS - 1))
    def recover_server(self, sid):
        if sid in self.failed:
            self.system.recover_server(sid)
            self.failed.discard(sid)

    @rule()
    def drop_caches(self):
        self.system.drop_all_caches()

    # --------------------------------------------------------------- queries
    @rule(
        name=st.sampled_from(["a", "b"]),
        op=st.sampled_from([">", ">=", "<", "<="]),
        v=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        strategy=st.sampled_from(list(Strategy)),
    )
    def query_single(self, name, op, v, strategy):
        node = Condition(name, QueryOp(op), PDCType.FLOAT, v)
        res = self.engine.execute(node, want_selection=True, strategy=strategy)
        truth = np.flatnonzero(QueryOp(op).apply(self.model[name], np.float32(v)))
        assert res.nhits == truth.size
        assert np.array_equal(res.selection.coords, truth)

    @rule(
        va=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        vb=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        strategy=st.sampled_from(list(Strategy)),
    )
    def query_joint(self, va, vb, strategy):
        node = combine_and(
            Condition("a", QueryOp.GT, PDCType.FLOAT, va),
            Condition("b", QueryOp.LT, PDCType.FLOAT, vb),
        )
        res = self.engine.execute(node, strategy=strategy)
        truth = int(
            ((self.model["a"] > np.float32(va)) & (self.model["b"] < np.float32(vb))).sum()
        )
        assert res.nhits == truth

    @rule(
        op=st.sampled_from([">", ">=", "<", "<="]),
        v=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    def sorted_query_with_server_zero_crashed(self, op, v):
        """Crash server 0 while another stays alive, build the replica if
        it is missing, and run PDC-SH: drawn rule by rule, the three meet
        too rarely for the fixed-seed budget.  ``alive_count_consistent``
        then checks the crashed server did no work."""
        self.fail_server(0)
        self.build_replica()
        self.query_single("a", op, v, Strategy.SORT_HIST)

    # ------------------------------------------------------------- invariants
    @invariant()
    def clocks_monotonic(self):
        if not hasattr(self, "system"):
            return
        t = max(c.now for c in self.system.all_clocks())
        assert t >= self.last_elapsed
        self.last_elapsed = t

    @invariant()
    def derived_state_matches_model(self):
        if not hasattr(self, "system"):
            return
        for name, data in self.model.items():
            obj = self.system.get_object(name)
            assert obj.n_elements == data.size
            assert int(obj.counts.sum()) == data.size
            assert obj.meta.histograms.n_regions == obj.n_regions
            if obj.indexes is not None:
                assert obj.indexes.n_elements.size == obj.n_regions
            for rid in range(obj.n_regions):
                seg = data[obj.offsets[rid] : obj.offsets[rid] + obj.counts[rid]]
                assert obj.rmin[rid] == seg.min()
                assert obj.rmax[rid] == seg.max()
                assert obj.meta.histograms.view(rid).total == obj.counts[rid]

    @invariant()
    def maintained_state_equals_rebuilt(self):
        if not hasattr(self, "system"):
            return
        for name, data in self.model.items():
            obj = self.system.get_object(name)
            assert np.array_equal(obj.data, data)
            assert_payload_is_a_prefix_view(obj)
            assert_histograms_fresh(self.system, obj)
            if obj.indexes is not None:
                assert_index_fresh(self.system, obj)
        assert self.system.pfs.bytes_written == self.bytes_written

    @invariant()
    def replica_answers_equal_the_model(self):
        if not hasattr(self, "system") or "a" not in self.system.replicas:
            return
        replica = self.system.replicas["a"].replica
        assert replica.dirty.tolist() == sorted(self.dirty)
        mask = replica.dirty_mask
        assert np.array_equal(np.flatnonzero(mask) if mask is not None else [], replica.dirty)
        a, b = (self.system.get_object(n) for n in ("a", "b"))
        for ia, ib in ((Interval(1.0, None, False), None),
                       (Interval(0.5, 2.0), Interval(None, 3.0, hi_closed=False))):
            start, stop = replica.search_range(ia.lo, ia.hi, ia.lo_closed, ia.hi_closed)
            checks, want = [(a, ia)], ia.mask(self.model["a"])
            keep = None
            if ib is not None:
                checks.append((b, ib))
                want &= ib.mask(self.model["b"])
                keep = ib.mask(replica.companion_slice("b", start, stop))
            got = replica_coords(replica, checks, start, stop, keep)
            assert np.array_equal(got, np.flatnonzero(want))

    @invariant()
    def index_answers_equal_the_model(self):
        if not hasattr(self, "system"):
            return
        for name, data in self.model.items():
            obj = self.system.get_object(name)
            if obj.indexes is None:
                continue
            for iv in (Interval(1.0, 1.3, False), Interval(2.0, 2.05),
                       Interval(None, 0.4, hi_closed=False)):
                regions, covered, _ = surviving_regions(obj, iv)
                got = index_coords(obj, iv, (0, data.size), regions, covered)
                assert np.array_equal(got, np.flatnonzero(iv.mask(data))), iv

    @invariant()
    def alive_count_consistent(self):
        if not hasattr(self, "system"):
            return
        assert len(self.system.alive_servers) == N_SERVERS - len(self.failed)
        # A crashed server holds nothing and does no work.
        assert self.system.crashed == self.failed
        for sid in self.failed:
            server = self.system.servers[sid]
            assert len(server.cache) == 0 and not server.meta_cached
            assert self.busy(sid) == self.busy_at_crash[sid]

    def busy(self, sid):
        """A server's clock categories other than idle waiting."""
        return {
            k: v for k, v in self.system.servers[sid].clock.breakdown().items()
            if k not in ("wait", "comm")
        }


TestPDCStateMachine = PDCStateMachine.TestCase
