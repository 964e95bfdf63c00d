"""The correctness bar for incremental maintenance: every interleaving
of ingest epochs with queries, faults, and batch windows must return
results **bit-identical** to a from-scratch rebuild at the same
simulated instant.

Two same-seed deployments run the identical op/query schedule, one with
``maintenance="delta"`` (incremental histogram deltas + WAH delta
segments + compaction), one with ``maintenance="rebuild"`` (the legacy
rebuild-per-write path).  Payloads, region min/max, histogram *content*,
selections, and hit counts must all agree; only the maintenance *cost
accounting* may differ between modes (that difference is the whole
point of delta maintenance — see docs/ingest.md).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.faults import FaultConfig, FaultPlan
from repro.ingest import IngestConfig, IngestStream
from repro.query.ast import Condition, combine_and
from repro.query.executor import QueryEngine
from repro.query.scheduler import QueryScheduler
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp
from tests.conftest import make_system, zero_clocks


def gt(name, v):
    return Condition(name, QueryOp.GT, PDCType.FLOAT, v)


def build(seed=12345, fault_seed=None, **cfg_kwargs):
    sysm = make_system(region_size_bytes=1 << 11, **cfg_kwargs)
    rng = np.random.default_rng(seed)
    n = 1 << 12
    sysm.create_object("energy", rng.gamma(2.0, 0.7, n).astype(np.float32))
    sysm.create_object("x", (rng.random(n) * 300.0).astype(np.float32))
    sysm.build_index("energy")
    sysm.build_index("x")
    if fault_seed is not None:
        sysm.set_fault_plan(
            FaultPlan(
                seed=fault_seed,
                config=FaultConfig(pfs_read_error_rate=0.1),
            )
        )
    return sysm


def schedule(seed=7, n_epochs=6, ops_per_epoch=4, write_size=48):
    """One deterministic interleaved plan both modes replay."""
    rng = np.random.default_rng(seed)
    plan = []
    for e in range(n_epochs):
        writes = []
        for _ in range(ops_per_epoch):
            name = "energy" if rng.random() < 0.7 else "x"
            if rng.random() < 0.2:
                # Appends grow both query operands in lockstep: conjunct
                # evaluation requires shared dimensions.
                writes.append(("append", "energy", None,
                               rng.gamma(2.0, 0.7, write_size)
                               .astype(np.float32)))
                writes.append(("append", "x", None,
                               (rng.random(write_size) * 300.0)
                               .astype(np.float32)))
            else:
                offset = int(rng.integers(0, (1 << 12) - write_size))
                writes.append(("update", name, offset,
                               rng.gamma(2.0, 0.7, write_size)
                               .astype(np.float32)))
        thresholds = [float(np.float32(rng.uniform(0.3, 3.0)))
                      for _ in range(3)]
        plan.append((writes, thresholds))
    return plan


def run_mode(mode, plan, fault_seed=None, use_batches=False):
    sysm, answers, _ = drive(build(fault_seed=fault_seed), mode, plan, use_batches)
    return sysm, answers


def drive(sysm, mode, plan, use_batches=False):
    stream = IngestStream(
        sysm,
        IngestConfig(
            epoch_interval_s=0.01, maintenance=mode, index_compact_fraction=0.1,
        ),
    )
    engine = QueryEngine(sysm)
    sched = QueryScheduler(sysm, max_width=4) if use_batches else None
    t0 = max(c.now for c in sysm.all_clocks())
    answers = []
    for e, (writes, thresholds) in enumerate(plan):
        base = t0 + e * 0.01
        for j, (kind, name, offset, vals) in enumerate(writes):
            t_op = base + j * 0.01 / (len(writes) + 1)
            if kind == "append":
                stream.append(name, vals, t_s=t_op)
            else:
                stream.update(name, offset, vals, t_s=t_op)
        stream.advance_to(base + 0.01)
        if use_batches:
            results = sched.run([gt("energy", t) for t in thresholds])
            answers.extend(
                (r.nhits, r.selection.coords.tobytes()) for r in results
            )
        else:
            node = combine_and(
                gt("energy", thresholds[0]),
                Condition("x", QueryOp.LT, PDCType.FLOAT, 150.0),
            )
            r = engine.execute(node)
            answers.append((r.nhits, r.selection.coords.tobytes()))
    stream.flush()
    if sched is not None:
        sched.close()
    return sysm, answers, stream


def assert_state_equivalent(sys_a, sys_b):
    """Maintained derived state must be bit-identical across modes."""
    assert sorted(sys_a.objects) == sorted(sys_b.objects)
    for name in sys_a.objects:
        oa, ob = sys_a.objects[name], sys_b.objects[name]
        assert oa.data.tobytes() == ob.data.tobytes()
        assert oa.rmin.tobytes() == ob.rmin.tobytes()
        assert oa.rmax.tobytes() == ob.rmax.tobytes()
        for rid in range(oa.n_regions):
            assert oa.meta.histograms.view(rid).equivalent(
                ob.meta.histograms.view(rid)
            ), (name, rid)
        assert oa.meta.global_histogram.merged.equivalent(
            ob.meta.global_histogram.merged
        )


class TestInterleavedEquivalence:
    def test_delta_matches_rebuild_single_queries(self):
        plan = schedule()
        sys_d, ans_d = run_mode("delta", plan)
        sys_r, ans_r = run_mode("rebuild", plan)
        assert ans_d == ans_r
        assert_state_equivalent(sys_d, sys_r)

    def test_delta_matches_rebuild_batch_windows(self):
        plan = schedule(seed=17)
        sys_d, ans_d = run_mode("delta", plan, use_batches=True)
        sys_r, ans_r = run_mode("rebuild", plan, use_batches=True)
        assert ans_d == ans_r
        assert_state_equivalent(sys_d, sys_r)

    def test_delta_matches_rebuild_under_faults(self):
        """Fault injection perturbs retries/backoff, never answers —
        in either maintenance mode."""
        plan = schedule(seed=23, n_epochs=4)
        sys_d, ans_d = run_mode("delta", plan, fault_seed=11)
        sys_r, ans_r = run_mode("rebuild", plan, fault_seed=11)
        assert ans_d == ans_r
        assert_state_equivalent(sys_d, sys_r)

    def test_same_seed_fingerprint_pinned(self):
        """One committed digest over everything a same-seed delta run
        produces on a replica-backed deployment whose replica follows the
        writes and re-sorts itself (``replica_staleness_policy="mark_stale"``):
        answers, region min/max, maintenance counters and every clock's
        charge breakdown, bit-exact.  A pure refactor must not move it."""
        sysm = build(
            replica_staleness_policy="mark_stale", replica_rebuild_threshold=0.05
        )
        sysm.build_sorted_replica("energy", ["x"])
        _, answers, stream = drive(sysm, "delta", schedule())
        def exact(values):  # float.hex(): no rounding hides a moved ulp
            return repr(sorted((k, float(v).hex()) for k, v in values.items())).encode()

        h = hashlib.sha256()
        for nhits, coords in answers:
            h.update(str(nhits).encode() + coords)
        for name in sorted(sysm.objects):
            h.update(sysm.objects[name].rmin.tobytes())
            h.update(sysm.objects[name].rmax.tobytes())
        h.update(exact(stream.totals()))
        for clock in sysm.all_clocks():
            h.update(clock.name.encode() + exact(clock.breakdown()))
        assert h.hexdigest() == (
            "e086fc237df58fc8902f5da98d480fd5efbebb2702ce03b65d65d73d3420c595"
        )

    def test_delta_matches_fresh_rebuild_probe_queries(self):
        """After full compaction, a probe query over the delta-maintained
        deployment charges exactly what a freshly rebuilt deployment
        charges: the folded bitmaps and exact histograms carry no trace
        of their incremental history."""
        plan = schedule(seed=31, n_epochs=4)
        sys_d, _ = run_mode("delta", plan)
        # Fold every outstanding delta segment.
        for name in sorted(sys_d.objects):
            obj = sys_d.objects[name]
            if obj.indexes is None:
                continue
            for rid in range(obj.n_regions):
                if obj.indexes.delta[rid]:
                    sys_d.compact_region_index(name, rid)
        # Replay the same payloads into a fresh deployment.
        sys_f = make_system(region_size_bytes=1 << 11)
        for name in sorted(sys_d.objects):
            sys_f.create_object(name, sys_d.objects[name].data.copy())
            sys_f.build_index(name)
        # Warm both deployments with one identical query, then zero the
        # clocks.  The warm-up absorbs the one-time metadata-distribution
        # charge, which scales with the global histogram's *byte size* —
        # a representation detail the delta/rebuild equivalence contract
        # deliberately does not pin (equivalent content, possibly a
        # different bin grid).  Past it, identical payloads + identical
        # caches must charge identically.
        for sysm in (sys_d, sys_f):
            QueryEngine(sysm).execute(
                gt("energy", 2.0), strategy=Strategy.FULL_SCAN
            )
            zero_clocks(sysm)
        for strategy in (Strategy.FULL_SCAN, Strategy.HISTOGRAM,
                         Strategy.HIST_INDEX):
            ra = QueryEngine(sys_d).execute(
                gt("energy", 2.0), strategy=strategy
            )
            rb = QueryEngine(sys_f).execute(
                gt("energy", 2.0), strategy=strategy
            )
            assert ra.nhits == rb.nhits
            assert ra.selection.coords.tobytes() == rb.selection.coords.tobytes()
            assert ra.elapsed_s == pytest.approx(rb.elapsed_s, abs=0.0), (
                strategy
            )
            assert ra.bytes_read_virtual == rb.bytes_read_virtual

    def test_selection_cache_repair_during_ingest(self):
        """A scheduler's semantic cache stays correct across ingest
        epochs: repaired entries equal fresh evaluation bit for bit."""
        sysm = build()
        stream = IngestStream(
            sysm, IngestConfig(epoch_interval_s=0.01, maintenance="delta")
        )
        sched = QueryScheduler(sysm, max_width=2, use_selection_cache=True)
        wrng = np.random.default_rng(5)
        t0 = max(c.now for c in sysm.all_clocks())
        for i in range(5):
            (res,) = sched.run([gt("energy", 1.5)])
            truth = np.flatnonzero(
                sysm.objects["energy"].data > np.float32(1.5)
            )
            assert np.array_equal(res.selection.coords, truth)
            off = int(wrng.integers(0, (1 << 12) - 64))
            stream.update(
                "energy", off, wrng.gamma(2.0, 0.7, 64).astype(np.float32),
                t_s=t0 + 0.01 * i + 0.001,
            )
            stream.advance_to(t0 + 0.01 * (i + 1))
        (res,) = sched.run([gt("energy", 1.5)])
        truth = np.flatnonzero(sysm.objects["energy"].data > np.float32(1.5))
        assert np.array_equal(res.selection.coords, truth)
        assert sched.selection_cache.stats.repaired > 0
        sched.close()
