"""Pinned digests over fault-injected, traced scenarios.

Every way a region is made resident — the five strategies' data reads,
index probes and replica reads, PDC-HI over uncompacted delta segments, a
batch window, ``get_data`` and the metadata + data path — runs here
under a fault plan that slows, fails and loses reads, crashes servers and
drags stragglers, with a recording tracer and a service monitor installed
and server caches small enough to evict.  The digest covers full-precision
state: every result field but the trace object, each clock's time and
per-category charges, the caches' LRU contents and counters, the metrics
registry, the plan's injected-fault counts, the monitor's read samples and
every span and event.  A pure refactor of the read path must not move it.

The second digest, over the same deployment, holds the planning of
``AUTO`` windows: batch windows through a scheduler and its semantic
cache (exact hits, narrowing, a repair after a write), equal trees in one
window, OR trees, contradictions, unknown objects, a time budget, and
servers crashing mid-window.  A refactor of planning must not move it.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.errors import RegionUnavailableError
from repro.faults import FaultConfig, FaultPlan
from repro.interval import Interval
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import ServiceMonitor
from repro.obs.tracer import Tracer
from repro.query.ast import Condition, combine_and, combine_or
from repro.query.executor import BatchResult, QueryEngine, QuerySpec
from repro.query.scheduler import QueryScheduler
from repro.query.selection import Selection
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp

from tests.conftest import make_system

REGION_BYTES = 1 << 12  # 1 Ki float32 elements
FAULTS = FaultConfig(
    pfs_read_error_rate=0.3, max_retries=1, pfs_slow_rate=0.25,
    server_crash_rate=0.04, server_slow_rate=0.2,
)
DIGEST = "38a1c55b8b4d86cee0a105dbf0ca83db78d58a30f647adf3443179b032f8cd35"
WINDOW_DIGEST = "9f66d1f6e72a7c1481056a1a884e1688e7d7ea19e9caa4008789b206cad65b1b"


def window(name, lo, hi):
    return combine_and(
        Condition(name, QueryOp.GT, PDCType.FLOAT, lo),
        Condition(name, QueryOp.LT, PDCType.FLOAT, hi),
    )


def deployment():
    """16 regions x 2 objects on 4 servers that each hold three regions,
    both objects indexed, a sorted replica, delta segments on three
    regions, and twelve one-region tagged objects for the metadata path."""
    sysm = make_system(
        n_servers=4, region_size_bytes=REGION_BYTES,
        server_memory_bytes=3 * REGION_BYTES,
        metrics=MetricsRegistry(), tracer=Tracer(),
    )
    rng = np.random.default_rng(2020)
    sysm.create_object("energy", rng.gamma(2.0, 0.7, 1 << 14).astype(np.float32))
    sysm.create_object("x", (rng.random(1 << 14) * 300.0).astype(np.float32))
    sysm.build_index("energy")
    sysm.build_index("x")
    sysm.build_sorted_replica("energy", ["x"])
    energy = sysm.get_object("energy")
    for rid in (2, 5, 11):
        sysm.update_object_region(
            "energy", int(energy.offsets[rid]) + 7,
            rng.uniform(0.0, 6.0, 50).astype(np.float32), maintenance="delta",
        )
    for i in range(12):
        name = f"fiber{i:03d}"
        sysm.create_object(
            name, (rng.random(256) * 30.0).astype(np.float32),
            tags={"PLATE": i % 2},
        )
        sysm.build_index(name)
    sysm.set_monitor(ServiceMonitor())
    return sysm, QueryEngine(sysm)


def attempt(call, *args, **kwargs):
    """``call``'s result, or the read error it raised."""
    try:
        return call(*args, **kwargs)
    except RegionUnavailableError as exc:
        return exc


def run(sysm, engine):
    """The scenario; returns every outcome in order (a raised error is an
    outcome)."""
    plan = FaultPlan(seed=11, config=FAULTS)
    sysm.set_fault_plan(plan)
    out = []
    both = combine_and(window("energy", 1.7, 3.9), window("x", 20.5, 240.0))
    for strat in (
        Strategy.FULL_SCAN, Strategy.HISTOGRAM, Strategy.HIST_INDEX,
        Strategy.SORT_HIST, Strategy.AUTO,
    ):
        out.append(engine.execute(window("energy", 0.9, 2.6), strategy=strat))
        out.append(engine.execute(both, strategy=strat))
        out.append(attempt(engine.get_data, out[-1].selection, "x", strategy=strat))
    # PDC-HI over the delta segments: an on-grid window leaves only the
    # delta positions as candidates.
    assert np.count_nonzero(sysm.get_object("energy").indexes.delta) == 3
    out.append(engine.execute(window("energy", 2.1, 2.2), strategy=Strategy.HIST_INDEX))
    sysm.drop_all_caches()  # the window's queries read (and lose) regions
    out.append(engine.execute_batch([
        QuerySpec(window("energy", 1.0, 3.0), strategy=Strategy.HISTOGRAM),
        QuerySpec(window("energy", 1.5, 3.5), strategy=Strategy.HISTOGRAM),
        QuerySpec(window("energy", 0.2, 5.0), strategy=Strategy.FULL_SCAN),
        QuerySpec(both, strategy=Strategy.HIST_INDEX),
    ]))
    for plate in (0, 1):
        out.append(attempt(
            engine.metadata_data_query, {"PLATE": plate}, Interval(lo=4.0, hi=21.0),
            strategy=Strategy.HIST_INDEX,
        ))
    # A get_data whose read exhausts its retries: the low regions are left
    # resident, every read then fails, so each server's first region not
    # resident ends it after the resident ones' copies.
    out.append(engine.execute(
        window("energy", 0.5, 3.0), strategy=Strategy.HISTOGRAM,
        region_constraint=(0, 9 * 1024),
    ))
    doomed = FaultPlan(seed=3, config=FaultConfig(pfs_read_error_rate=1.0, max_retries=1))
    sysm.set_fault_plan(doomed)
    everything = Selection(np.arange(sysm.get_object("energy").n_elements), 1 << 14)
    out.append(attempt(engine.get_data, everything, "energy", strategy=Strategy.HISTOGRAM))
    sysm.set_fault_plan(plan)
    return out, [plan, doomed]


def canonical(value):
    """Full-precision, order-preserving plain data (``repr`` of a float
    round-trips exactly)."""
    if isinstance(value, Exception):
        return (type(value).__name__, str(value))
    if isinstance(value, np.ndarray):
        return (str(value.dtype), value.tobytes().hex())
    if isinstance(value, Selection):
        return ("selection", value.domain_size, value.coords.tobytes().hex())
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, dict):
        return [(canonical(k), canonical(v)) for k, v in value.items()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [
            (f.name, canonical(getattr(value, f.name)))
            for f in dataclasses.fields(value) if f.name != "trace"
        ]
    return value


def fingerprint(sysm, outcomes, plans) -> str:
    clocks = [s.clock for s in sysm.servers] + [sysm.client_clock]
    spans = [
        (s.span_id, s.parent_id, s.name, s.category, s.track, s.start_s, s.end_s,
         canonical(s.attrs))
        for s in sysm.tracer.spans + sysm.tracer.events
    ]
    state = [
        canonical(outcomes),
        [(c.name, c.now, list(c.breakdown().items())) for c in clocks],
        [(s.cache.entries(), dataclasses.astuple(s.cache.stats)) for s in sysm.servers],
        list(sysm.metrics.collect()),
        [plan.snapshot() for plan in plans],
        [r for r in sysm.monitor.recorder.to_jsonl_records()
         if r.get("name") == "pdc_server_read_bytes"],
        spans,
    ]
    return hashlib.sha256(repr(state).encode()).hexdigest()


def test_fault_trace_fingerprint_pinned():
    sysm, engine = deployment()
    outcomes, plans = run(sysm, engine)
    # The scenario reaches what it is meant to reach.
    results = [o for o in outcomes if hasattr(o, "lost_regions")]
    assert any(r.lost_regions for r in results)
    assert any(r.retries for r in results) and any(r.failovers for r in results)
    assert isinstance(outcomes[-1], RegionUnavailableError)
    assert isinstance(outcomes[-3], RegionUnavailableError)  # metadata path
    batch = [o for o in outcomes if isinstance(o, BatchResult)][0]
    assert any(r.lost_regions for r in batch.results)
    assert plans[0].injected("pfs_slow") and plans[0].injected("server_slow")
    assert any(s.name.startswith("retry:") for s in sysm.tracer.spans)
    assert any(e.name.startswith("lost:") for e in sysm.tracer.events)
    assert any(s.cache.stats.evictions for s in sysm.servers)
    assert fingerprint(sysm, outcomes, plans) == DIGEST


def auto(node, **kwargs):
    return QuerySpec(node, strategy=Strategy.AUTO, **kwargs)


def run_windows(sysm, engine):
    """``AUTO`` windows through a scheduler whose semantic cache is hooked
    to the system's writes; returns each window's batch, the cache's
    counters and the fault plan."""
    scheduler = QueryScheduler(sysm, engine)
    wide, narrow_x = window("energy", 1.0, 3.0), window("x", 20.0, 200.0)
    both = combine_and(window("energy", 1.7, 3.9), window("x", 20.5, 240.0))
    either = combine_or(window("energy", 4.0, 6.0), window("x", 250.0, 280.0))
    out = [scheduler.execute_window([
        auto(wide), auto(wide), auto(narrow_x), auto(both), auto(either),
        auto(window("energy", 5.0, 3.0)),  # contradiction: no conjunct left
        auto(window("nope", 0.0, 1.0)),
        auto(window("energy", 0.5, 4.0), timeout_s=2e-4),
    ])]
    # Exact hits and narrowed supersets.
    out.append(scheduler.execute_window([
        auto(wide), auto(window("energy", 1.5, 2.5)), auto(narrow_x),
        auto(window("x", 50.0, 60.0)), auto(both), auto(either),
    ]))
    # A region write between windows: the cached energy selections are
    # repaired over the written span.
    energy = sysm.get_object("energy")
    sysm.update_object_region(
        "energy", int(energy.offsets[6]) + 3, np.linspace(0.5, 3.5, 40, dtype=np.float32)
    )
    out.append(scheduler.execute_window([
        auto(wide), auto(window("energy", 1.2, 2.8)), auto(wide), auto(narrow_x),
    ]))
    # Servers crash mid-window and reads fail.
    plan = FaultPlan(seed=5, config=FaultConfig(
        server_crash_rate=0.15, pfs_read_error_rate=0.1, max_retries=1,
    ))
    sysm.set_fault_plan(plan)
    out.append(scheduler.execute_window([
        auto(window("energy", 0.3, 2.2)), auto(window("energy", 0.3, 2.2)),
        auto(window("x", 10.0, 120.0)), auto(both), auto(either),
        auto(window("energy", 2.0, 2.4)), auto(window("x", 100.0, 110.0)),
        auto(window("energy", 0.3, 2.2), timeout_s=5e-3),
    ]))
    sysm.set_fault_plan(None)
    scheduler.close()
    return out, scheduler.selection_cache.stats, plan


def test_window_fingerprint_pinned():
    sysm, engine = deployment()
    batches, stats, plan = run_windows(sysm, engine)
    results = [r for b in batches for r in b.results if r is not None]
    # The windows reach what they are meant to reach.
    assert batches[1].semantic_hits and batches[1].semantic_narrowed
    assert batches[2].semantic_repaired
    assert any(r.timed_out for r in results)
    assert any(r.failovers for r in batches[3].results if r is not None)
    assert len(batches[0].errors) == 1 and batches[0].results[5].nhits == 0
    assert {Strategy.FULL_SCAN, Strategy.HISTOGRAM} <= {r.strategy for r in results}
    assert fingerprint(sysm, [batches, stats], [plan]) == WINDOW_DIGEST
