"""The array charge path ≡ the per-region loop.

With no fault plan and a no-op tracer, ``QueryEngine._read_regions`` and
``_charge_index_reads`` make a server's whole share resident in one pass and
charge it in one pass; a fault plan or a recording tracer sends every region
through the per-region body instead.  A zero-rate ``FaultPlan`` draws
nothing, so two same-seed deployments that differ only in having one
installed must end in *identical* state — clocks (values and category
order), cache LRU order and counters, the metrics registry, the monitor's
read samples and every result counter — whatever the caches held before.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.faults import FaultConfig, FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import ServiceMonitor
from repro.pdc.region import region_key
from repro.pdc.server import PDCServer
from repro.query.ast import Condition, combine_and
from repro.query.executor import QueryEngine, QuerySpec
from repro.storage.device import DeviceKind
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp

from tests.conftest import make_system

N_SERVERS = 3
REGION_BYTES = 1 << 16  # virtual; 256 float32 elements at scale 64
STRATEGIES = (
    Strategy.FULL_SCAN, Strategy.HISTOGRAM, Strategy.HIST_INDEX, Strategy.SORT_HIST,
)


def window(name, lo, hi):
    return combine_and(
        Condition(name, QueryOp.GT, PDCType.FLOAT, lo),
        Condition(name, QueryOp.LT, PDCType.FLOAT, hi),
    )


def deployment(per_region: bool, memory: float = 64e9, monitor: bool = True):
    """32 regions x 3 servers, both objects indexed, a sorted replica; the
    ``per_region`` twin carries a zero-rate fault plan."""
    sysm = make_system(
        n_servers=N_SERVERS, region_size_bytes=REGION_BYTES, virtual_scale=64.0,
        server_memory_bytes=memory, metrics=MetricsRegistry(),
    )
    rng = np.random.default_rng(2020)
    sysm.create_object("energy", rng.gamma(2.0, 0.7, 1 << 13).astype(np.float32))
    sysm.create_object("x", (rng.random(1 << 13) * 300.0).astype(np.float32))
    sysm.build_index("energy")
    sysm.build_index("x")
    sysm.build_sorted_replica("energy", ["x"])
    if per_region:
        sysm.set_fault_plan(FaultPlan(seed=1, config=FaultConfig()))
    if monitor:
        sysm.set_monitor(ServiceMonitor())
    return sysm, QueryEngine(sysm)


def outcome(res):
    """A result as plain comparable data (arrays as bytes, the trace left
    out)."""
    if res is None or isinstance(res, (int, float, str, bool)):
        return res
    if isinstance(res, np.ndarray):
        return res.tobytes()
    if isinstance(res, (list, tuple)):
        return [outcome(r) for r in res]
    if isinstance(res, dict):
        return {k: outcome(v) for k, v in res.items()}
    if dataclasses.is_dataclass(res):
        return {
            f.name: outcome(getattr(res, f.name))
            for f in dataclasses.fields(res) if f.name != "trace"
        }
    if hasattr(res, "coords"):
        return res.coords.tobytes()
    return repr(res)


def state(sysm):
    clocks = [s.clock for s in sysm.servers] + [sysm.client_clock]
    return {
        "clocks": [(c.now, list(c.breakdown().items())) for c in clocks],
        "caches": [(s.cache.entries(), s.cache.stats) for s in sysm.servers],
        "metrics": list(sysm.metrics.collect()),
        "reads": [
            r for r in sysm.monitor.recorder.to_jsonl_records()
            if r.get("name") == "pdc_server_read_bytes"
        ] if sysm.monitor.enabled else None,
    }


# ------------------------------------------------------------------ scripts
def cold_and_warm(sysm, engine):
    """Every strategy cold, then warm; get_data warm (memory copies) and
    cold (reads)."""
    out = []
    node = window("energy", 0.123, 2.456)
    for strat in STRATEGIES:
        sysm.drop_all_caches()
        cold = engine.execute(node, strategy=strat)
        out += [cold, engine.execute(node, strategy=strat)]
        out.append(engine.get_data(cold.selection, "x", strategy=strat))
        sysm.drop_all_caches()
        out.append(engine.get_data(cold.selection, "energy", strategy=strat))
    return out


def half_warm(sysm, engine):
    """A narrow window warms a few regions, wider ones find them among
    misses; a second object's probes run over the first's candidates."""
    out = [
        engine.execute(window("energy", 3.01, 3.49), strategy=Strategy.HISTOGRAM),
        engine.execute(window("energy", 2.03, 3.97), strategy=Strategy.HIST_INDEX),
        engine.execute(window("energy", 0.5, 4.0), region_constraint=(500, 4500)),
    ]
    both = combine_and(window("energy", 2.53, 6.0), window("x", 10.7, 203.1))
    for strat in STRATEGIES + (Strategy.AUTO,):
        out.append(engine.execute(both, strategy=strat))
    out.append(engine.get_data(out[-1].selection, "x", strategy=Strategy.AUTO))
    return out


def delta_segments(sysm, engine):
    """Uncompacted WAH delta positions: scanned, and candidates all."""
    obj = sysm.get_object("energy")
    rng = np.random.default_rng(5)
    for rid in (1, 7, 8):
        sysm.update_object_region(
            "energy", int(obj.offsets[rid]) + 11,
            rng.uniform(0.0, 6.0, 40).astype(np.float32), maintenance="delta",
        )
    assert np.count_nonzero(obj.index_delta_counts) == 3
    node = window("energy", 2.1, 2.2)  # on the bin grid: only deltas are candidates
    return [engine.execute(node, strategy=Strategy.HIST_INDEX) for _ in range(2)]


def mixed_tiers(sysm, engine):
    obj = sysm.get_object("energy")
    sysm.migrate_regions("energy", range(0, obj.n_regions, 2), DeviceKind.NVRAM)
    sysm.migrate_regions("energy", [3, 9], DeviceKind.MEMORY)
    out = []
    for strat in (Strategy.HISTOGRAM, Strategy.HIST_INDEX):
        sysm.drop_all_caches()
        out.append(engine.execute(window("energy", 0.123, 2.456), strategy=strat))
    sysm.drop_all_caches()
    out.append(engine.get_data(out[0].selection, "energy", strategy=Strategy.HISTOGRAM))
    return out


def shared_scans(sysm, engine):
    """Overlapping windows: the batch's shared pass preloads what two or
    more of them demand (cold, then over whatever stayed resident)."""
    specs = [
        QuerySpec(window("energy", 2.0, 3.0), strategy=Strategy.HISTOGRAM),
        QuerySpec(window("energy", 2.5, 3.5), strategy=Strategy.HISTOGRAM),
        QuerySpec(window("energy", 0.1, 5.0), strategy=Strategy.FULL_SCAN),
        QuerySpec(window("energy", 2.2, 2.8), strategy=Strategy.HIST_INDEX),
    ]
    first = engine.execute_batch(specs)
    assert first.shared_reads > 0
    return [first, engine.execute_batch(specs)]


def all_pruned(sysm, engine):
    """A window the global histogram cannot rule out, constrained to a
    region whose min/max miss it: the step has no region left to charge."""
    obj = sysm.get_object("energy")
    rid = int(np.argmin(obj.rmax))
    lo = int(obj.offsets[rid])
    node = window("energy", float(obj.rmax[rid]), 99.0)
    assert engine.execute(node, strategy=Strategy.HIST_INDEX).nhits > 0
    out = [
        engine.execute(node, strategy=strat, region_constraint=(lo, lo + int(obj.counts[rid])))
        for strat in STRATEGIES + (Strategy.AUTO,)
    ]
    assert [res.nhits for res in out] == [0] * len(out)
    assert out[2].index_reads == 0
    return out


def run_twins(script, **options):
    runs = []
    for per_region in (False, True):
        sysm, engine = deployment(per_region, **options)
        runs.append((outcome(script(sysm, engine)), state(sysm)))
    return runs


@pytest.mark.parametrize(
    "script,options",
    [
        (cold_and_warm, {}),
        (cold_and_warm, {"monitor": False}),
        (half_warm, {}),
        # Two data regions (plus a few index files) fit a server.
        (half_warm, {"memory": 2.5 * REGION_BYTES}),
        (cold_and_warm, {"memory": 2.5 * REGION_BYTES}),
        (delta_segments, {}),
        (all_pruned, {}),
        (mixed_tiers, {}),
        (shared_scans, {}),
        (shared_scans, {"memory": 6.5 * REGION_BYTES}),
    ],
)
def test_array_path_equals_per_region_path(script, options):
    (got, got_state), (want, want_state) = run_twins(script, **options)
    assert got == want
    for part in want_state:
        assert got_state[part] == want_state[part], part


def test_a_miss_evicts_a_region_later_in_the_same_share():
    """Capacity for two regions a server: the full scan's first misses push
    out the two regions the narrow query left resident *before* the share
    reaches them, so they are read again — a residency pass that looked
    every key up before inserting any would call them hits."""

    def script(sysm, engine):
        engine.execute(
            window("energy", 0.0, 9.0), strategy=Strategy.HISTOGRAM,
            region_constraint=(24 * 256, 30 * 256),
        )
        server = sysm.servers[0]
        assert server.cache.contains(region_key("energy", 27))
        full = engine.execute(window("energy", 0.0, 9.0), strategy=Strategy.FULL_SCAN)
        assert (full.regions_read, full.regions_cached) == (32, 0)
        assert server.cache.stats.evictions > 0
        return full

    (got, got_state), (want, want_state) = run_twins(script, memory=2.5 * REGION_BYTES)
    assert got == want and got_state == want_state


def test_one_guard_routes_both_passes(monkeypatch):
    """No plan, no tracer: no region goes through the per-region body; a
    zero-rate plan: every one does."""
    calls = {"ensure_region": 0, "touch_share": 0}
    for name in calls:
        original = getattr(PDCServer, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(PDCServer, name, counted)
    for per_region in (False, True):
        calls.update(ensure_region=0, touch_share=0)
        sysm, engine = deployment(per_region)
        for strat in STRATEGIES:
            res = engine.execute(window("energy", 0.123, 2.456), strategy=strat)
        engine.get_data(res.selection, "energy")
        assert (calls["ensure_region"] > 0) is per_region
        assert (calls["touch_share"] == 0) is per_region
