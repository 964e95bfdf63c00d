"""One pinned digest over a fault-injected, traced scenario.

Every way a region is made resident — the five strategies' data reads,
index probes and replica reads, PDC-HI over uncompacted delta segments, a
batch's shared pass, ``get_data`` and the metadata + data path — runs here
under a fault plan that slows, fails and loses reads, crashes servers and
drags stragglers, with a recording tracer and a service monitor installed
and server caches small enough to evict.  The digest covers full-precision
state: every result field but the trace object, each clock's time and
per-category charges, the caches' LRU contents and counters, the metrics
registry, the plan's injected-fault counts, the monitor's read samples and
every span and event.  A pure refactor of the read path must not move it.
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
from repro.query.ast import Condition, combine_and
from repro.query.executor import QueryEngine, QuerySpec
from repro.query.selection import Selection
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp

from tests.conftest import make_system

REGION_BYTES = 1 << 12  # 1 Ki float32 elements
FAULTS = FaultConfig(
    pfs_read_error_rate=0.3, max_retries=1, pfs_slow_rate=0.25,
    server_crash_rate=0.04, server_slow_rate=0.2,
)
DIGEST = "4744b2e75ae1d80483611e58733e2225c8d598224f3e8985f1ec6f169eff466e"


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
    assert np.count_nonzero(sysm.get_object("energy").index_delta_counts) == 3
    out.append(engine.execute(window("energy", 2.1, 2.2), strategy=Strategy.HIST_INDEX))
    sysm.drop_all_caches()  # the shared pass reads (and loses) regions
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
    assert [o for o in outcomes if hasattr(o, "shared_reads")][0].server_errors
    assert plans[0].injected("pfs_slow") and plans[0].injected("server_slow")
    assert any(s.name.startswith("retry:") for s in sysm.tracer.spans)
    assert any(e.name.startswith("lost:") for e in sysm.tracer.events)
    assert any(s.cache.stats.evictions for s in sysm.servers)
    assert fingerprint(sysm, outcomes, plans) == DIGEST
