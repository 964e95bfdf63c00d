"""The one-pass charge path ≡ the per-region loop.

``PDCServer.touch_share`` makes a server's whole share resident and charges
it in one pass over the share's columns, in every configuration: each
access's lookup, fault attempts, insert, charges, spans, lost-region event
and monitor sample in order, at the clock's running time.  It is held to a per-region loop
written here, under faults, tracing and eviction.  And a zero-rate
``FaultPlan`` draws nothing, so two same-seed deployments that differ only in
having one installed must end in *identical* state — clocks (values and
category order), cache LRU order and counters, the metrics registry, the
monitor's read samples and every result counter — whatever the caches held
before.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import itertools
import pathlib

import numpy as np
import pytest

import repro
from repro.errors import RegionUnavailableError
from repro.faults import FaultConfig, FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import ServiceMonitor
from repro.obs.timeseries import TimeSeriesRecorder
from repro.obs.tracer import Tracer
from repro.pdc.region import region_key
from repro.pdc.server import PDCServer
from repro.query.ast import Condition, combine_and
from repro.query.executor import QueryEngine, QuerySpec
from repro.storage.cache import RegionCache
from repro.storage.costmodel import CostModel, SimClock
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


def deployment(planned: bool, memory: float = 64e9, monitor: bool = True):
    """32 regions x 3 servers, both objects indexed, a sorted replica; the
    ``planned`` twin carries a zero-rate fault plan."""
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
    if planned:
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
        ] if sysm.monitor is not None else None,
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
    assert np.count_nonzero(obj.indexes.delta) == 3
    node = window("energy", 2.1, 2.2)  # on the bin grid: only deltas are candidates
    return [engine.execute(node, strategy=Strategy.HIST_INDEX) for _ in range(2)]


def overlapping_windows(sysm, engine):
    """Overlapping windows in one batch: a later query finds the regions an
    earlier one read resident (cold, then over whatever stayed resident)."""
    specs = [
        QuerySpec(window("energy", 2.0, 3.0), strategy=Strategy.HISTOGRAM),
        QuerySpec(window("energy", 2.5, 3.5), strategy=Strategy.HISTOGRAM),
        QuerySpec(window("energy", 0.1, 5.0), strategy=Strategy.FULL_SCAN),
        QuerySpec(window("energy", 2.2, 2.8), strategy=Strategy.HIST_INDEX),
    ]
    return [engine.execute_batch(specs), engine.execute_batch(specs)]


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
    for planned in (False, True):
        sysm, engine = deployment(planned, **options)
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
        (overlapping_windows, {}),
        (overlapping_windows, {"memory": 6.5 * REGION_BYTES}),
    ],
    # Fixed ids: a case keeps its name when another leaves the list.
    ids=[f"{name}-options{n}" for name, n in [
        ("cold_and_warm", 0), ("cold_and_warm", 1), ("half_warm", 2), ("half_warm", 3),
        ("cold_and_warm", 4), ("delta_segments", 5), ("all_pruned", 6),
        ("overlapping_windows", 8), ("overlapping_windows", 9),
    ]],
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


# ------------------------------------------------- the per-region reference
def count(owner, name, help, **labels):
    if owner.metrics is not None:
        owner.metrics.counter(name, help, labels=tuple(labels)).labels(**labels).inc()


def lookup(server, key):
    """A cache lookup on its own (what ``RegionCache.lookup`` was): True
    when resident; counts the hit or miss and refreshes the LRU order."""
    cache = server.cache
    hit = cache.contains(key)
    if hit:
        cache._entries.move_to_end(key)
    cache.stats.hits += hit
    cache.stats.misses += not hit
    count(server, "pdc_cache_lookups_total", "Region-cache lookups by server and result.",
          server="server0", result="hit" if hit else "miss")
    return hit


def reference_share(server, accesses, on_lost=None, span=None):
    """The per-region loop ``touch_share`` replaces, inside a real
    ``eval:serverN`` span when ``span`` gives its attributes."""
    if span is None:
        return reference_loop(server, accesses, on_lost)
    with server.tracer.span(f"eval:server{server.server_id}", server.clock,
                            category="server_eval", **span):
        return reference_loop(server, accesses, on_lost)


def reference_loop(server, accesses, on_lost):
    """Per access, look the key up; on a miss, per attempt draw the slow
    factor and the failure and charge the attempt and any backoff inside
    real spans, and put the payload only once a read succeeds.  A read
    failing for good drops the rest of its region (``on_lost``) or ends the
    share by raising."""
    plan, tracer, clock = server.fault_plan, server.tracer, server.clock
    flags, dropping = [], None
    for key, nbytes, on_miss, on_hit, sampled, then, region, span_bytes in accesses:
        if region == dropping:
            flags.append(None)
            continue
        dropping, failed = None, []

        def read(key, seconds=on_miss[0], category=on_miss[1], span_bytes=span_bytes):
            kind = "index_read" if category == "index_read" else "storage_read"
            with tracer.span(f"read:{key}", clock, category=kind, bytes=span_bytes):
                for attempt in itertools.count(1):
                    slow = 1.0 if plan is None else plan.pfs_slow_factor(key)
                    if slow != 1.0:
                        count(server, "pdc_faults_injected_total",
                              "Faults injected by the active FaultPlan", kind="pfs_slow")
                    clock.charge(seconds * slow, category)
                    if plan is None or not plan.pfs_read_fails(key):
                        return True
                    count(server, "pdc_faults_injected_total",
                          "Faults injected by the active FaultPlan", kind="pfs_read_error")
                    if attempt > plan.config.max_retries:
                        failed.append(RegionUnavailableError(
                            f"server{server.server_id}: read of {key!r} failed "
                            f"after {attempt} attempts"
                        ))
                        return False
                    server.retries_total += 1
                    count(server, "pdc_fault_retries_total",
                          "Storage-read retries performed during fault recovery",
                          server=str(server.server_id))
                    with tracer.span(f"retry:{key}", clock, category="fault", attempt=attempt):
                        clock.charge(plan.backoff_s(attempt), "retry_backoff")

        flag = lookup(server, key)
        if not flag:
            if read(key):
                server.cache.tally(0, 0, server.cache.admit(key, nbytes))
            else:
                flag = None
        flags.append(flag)
        if flag is None:
            if on_lost is None:
                raise failed[0]
            on_lost(server, region, failed[0], clock.now)
            dropping = region
            continue
        if flag and on_hit is not None:
            clock.charge(*on_hit)
        if sampled and server.monitor is not None:  # one sample at a time
            server.monitor.recorder.observe(
                "pdc_server_read_bytes", clock.now, float(nbytes),
                server=f"server{server.server_id}", result="hit" if flag else "read",
            )
        for charge in then:
            clock.charge(*charge)
    return flags


KEY_BYTES = 4000
FAULT_CASES = {
    "none": None,
    "zero": FaultConfig(),
    "errors": FaultConfig(pfs_read_error_rate=0.35, max_retries=2),
    "slow": FaultConfig(pfs_slow_rate=0.4),
    "both": FaultConfig(pfs_read_error_rate=0.3, pfs_slow_rate=0.3, max_retries=1),
    "doomed": FaultConfig(pfs_read_error_rate=1.0, max_retries=0),
}


def random_shares(seed, n_shares=6):
    """Shares of regions of one or two accesses (an index file, then a
    candidate read) over a small key pool, so keys repeat and evict."""
    rng = np.random.default_rng(seed)
    region = itertools.count()
    shares = []
    for _ in range(n_shares):
        accesses = []
        for _ in range(int(rng.integers(1, 9))):
            rid = next(region)
            for step in range(int(rng.integers(1, 3))):
                key = f"k{int(rng.integers(0, 10))}:{step}"
                nbytes = int(rng.integers(KEY_BYTES // 2, KEY_BYTES))
                on_miss = (float(rng.random()) * 1e-3, ("pfs_read", "index_read")[step])
                on_hit = (float(rng.random()) * 1e-5, "mem_copy") if rng.random() < 0.3 else None
                then = [(float(rng.random()) * 1e-4, "scan")] * int(rng.integers(0, 3))
                sampled = bool(step == 0 or rng.random() < 0.5)
                span_bytes = nbytes if step else nbytes // 3
                accesses.append((key, nbytes, on_miss, on_hit, sampled, then, rid, span_bytes))
        shares.append(accesses)
    return shares


def reference_server(faults, capacity, traced, monitored):
    server = PDCServer(0, CostModel(), memory_limit_bytes=capacity, metrics=MetricsRegistry())
    if faults is not None:
        server.fault_plan = FaultPlan(seed=9, config=faults)
    if traced:
        server.tracer = Tracer()
    if monitored:
        server.monitor = ServiceMonitor()
    return server


def server_state(server):
    events = []
    if server.tracer.enabled:
        events = [
            (s.span_id, s.parent_id, s.name, s.category, s.track, s.start_s, s.end_s, s.attrs)
            for s in server.tracer.spans + server.tracer.events
        ]
    return {
        "clock": (server.clock.now, list(server.clock.breakdown().items())),
        "cache": (server.cache.entries(), server.cache.stats),
        "metrics": list(server.metrics.collect()),
        "spans": events,
        "plan": server.fault_plan and server.fault_plan.snapshot(),
        "retries": server.retries_total,
        "reads": server.monitor is not None and server.monitor.recorder.to_jsonl_records(),
    }


def one_pass(server, accesses, **kwargs):
    """``touch_share`` over the columns of a list of access tuples (the
    reference's input form)."""
    keys, sizes, on_miss, on_hit, sampled, then, regions, span_bytes = map(list, zip(*accesses))
    assert all(h is None or h[1] == "mem_copy" for h in on_hit)
    assert all(category == "scan" for charges in then for _, category in charges)
    width = max(len(charges) for charges in then)
    return PDCServer.touch_share(
        server, keys, sizes, regions, [s for s, _ in on_miss], [c for _, c in on_miss],
        hit_s=[None if h is None else h[0] for h in on_hit],
        then=[([c[j][0] if j < len(c) else None for c in then], "scan")
              for j in range(width)],
        sampled=sampled, span_bytes=span_bytes, **kwargs,
    )


def drive(share_fn, server, shares, with_policy):
    """Run every share through ``share_fn``; returns each share's flags (or
    its error) and the lost regions the policy saw."""
    lost, out = [], []

    def on_lost(owner, region, exc, at):
        lost.append((owner.server_id, region, str(exc), at))
        owner.tracer.instant(f"lost:{region}", owner.clock, category="fault", at=at)

    for i, accesses in enumerate(shares):
        # Every other share inside an eval span, as a query step's are.
        span = {"object": "o", "regions": len({a[6] for a in accesses})} if i % 2 else None
        try:
            out.append(share_fn(server, accesses,
                                on_lost=on_lost if with_policy else None, span=span))
        except RegionUnavailableError as exc:
            out.append(("raised", str(exc)))
    return out, lost


@pytest.mark.parametrize("faults", sorted(FAULT_CASES))
@pytest.mark.parametrize("capacity", [1e18, 2.5 * KEY_BYTES], ids=["inf", "2.5"])
@pytest.mark.parametrize("with_policy", [True, False], ids=["on_lost", "raise"])
def test_touch_share_equals_the_per_region_loop(faults, capacity, with_policy):
    for seed, (traced, monitored) in enumerate(itertools.product((True, False), repeat=2)):
        shares = random_shares(seed)
        runs = []
        for share_fn in (one_pass, reference_share):
            server = reference_server(FAULT_CASES[faults], capacity, traced, monitored)
            runs.append((drive(share_fn, server, shares, with_policy),
                         server_state(server)))
        (got, got_state), (want, want_state) = runs
        assert got == want
        for part in want_state:
            assert got_state[part] == want_state[part], (part, traced, monitored)


class FoldLog(ServiceMonitor):
    """A recording monitor that also logs every ``on_region_read`` call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def on_region_read(self, server_id, reads):
        self.calls.append((server_id, list(reads)))
        super().on_region_read(server_id, reads)


class SampleLog(TimeSeriesRecorder):
    """A recorder that also logs every sample observed, in arrival order."""

    def __init__(self):
        super().__init__()
        self.log = []

    def observe(self, name, t_s, value, **labels):
        self.log.append((int(labels["server"][len("server"):]), t_s, value, labels["result"]))
        super().observe(name, t_s, value, **labels)


@pytest.mark.parametrize("faults", ["none", "errors", "slow"])
@pytest.mark.parametrize("capacity", [1e18, 2.5 * KEY_BYTES], ids=["inf", "2.5"])
@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("with_policy", [True, False], ids=["on_lost", "raise"])
def test_one_monitor_call_per_sampled_share(faults, capacity, traced, with_policy):
    """``touch_share`` hands the monitor each share's samples in one call —
    exactly one per share that has any — and what it records equals a
    per-region walk that observes one sample at a time: the same samples in
    the same order, overall and per series."""
    shares = random_shares(3)
    folded = reference_server(FAULT_CASES[faults], capacity, traced, False)
    folded.monitor = FoldLog()
    walked = reference_server(FAULT_CASES[faults], capacity, traced, False)
    walked.monitor = ServiceMonitor(recorder=SampleLog())
    per_share = []

    def counted_reference(server, accesses, **kwargs):
        before = len(server.monitor.recorder.log)
        try:
            return reference_share(server, accesses, **kwargs)
        finally:
            per_share.append(len(server.monitor.recorder.log) - before)

    assert (drive(one_pass, folded, shares, with_policy)
            == drive(counted_reference, walked, shares, with_policy))
    assert [len(reads) for _, reads in folded.monitor.calls] == [n for n in per_share if n]
    assert [(server_id, *read) for server_id, reads in folded.monitor.calls
            for read in reads] == walked.monitor.recorder.log
    assert (folded.monitor.recorder.to_jsonl_records()
            == walked.monitor.recorder.to_jsonl_records())
    assert sum(per_share) > 0


def test_the_reference_reaches_what_it_is_meant_to():
    """The crossed cases above see retries, losses inside a two-access
    region, raises and evictions — else they would prove little."""
    seen = set()
    for name in ("errors", "both"):
        server = reference_server(FAULT_CASES[name], 2.5 * KEY_BYTES, True, True)
        shares = random_shares(0)
        flags, lost = drive(reference_share, server, shares, True)
        by_region = {a[6]: [b[0] for b in share if b[6] == a[6]]
                     for share in shares for a in share}
        seen.update({"retry" for s in server.tracer.spans if s.name.startswith("retry:")})
        seen.update({"lost-index" for _, region, error, _ in lost
                     if len(by_region[region]) == 2 and ":0' failed" in error})
        seen.update({"evict" for _ in range(server.cache.stats.evictions)})
    server = reference_server(FAULT_CASES["doomed"], 1e18, False, False)
    seen.update({"raise" for f in drive(reference_share, server, random_shares(0), False)[0]
                 if f[0] == "raised"})
    assert seen == {"retry", "lost-index", "evict", "raise"}


def test_faults_and_tracing_never_enter_ensure_region(monkeypatch):
    """Under a nonzero-rate plan and a recording tracer, queries, a batch
    window and get_data make regions resident only through
    ``touch_share`` — there is no per-region body left to route to."""
    calls = {"ensure_region": 0, "touch_share": 0}
    for name in calls:
        original = getattr(PDCServer, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(PDCServer, name, counted)
    sysm, engine = deployment(False)
    sysm.set_tracer(Tracer())
    sysm.set_fault_plan(FaultPlan(seed=4, config=FaultConfig(
        pfs_read_error_rate=0.2, pfs_slow_rate=0.3, max_retries=8,
    )))
    for strat in STRATEGIES + (Strategy.AUTO,):
        res = engine.execute(window("energy", 0.123, 2.456), strategy=strat)
    sysm.drop_all_caches()
    overlapping_windows(sysm, engine)
    sysm.drop_all_caches()
    engine.get_data(res.selection, "energy")
    assert sysm.fault_plan.injected("pfs_read_error") > 0
    assert any(s.name.startswith("read:") for s in sysm.tracer.spans)
    assert calls == {"ensure_region": 0, "touch_share": calls["touch_share"]}
    assert calls["touch_share"] > 0


def test_shares_arrive_as_columns_through_one_body(monkeypatch):
    """Every share reaches ``touch_share`` as columns — lists of plain
    values, no per-access tuple — and the LRU walk has no second home:
    ``RegionCache.admit`` / ``tally`` are called from ``touch_share``
    alone, and the per-access passes the one pass replaced
    (``touch_many``, ``charge_many``, ``RegionCache.put``) are gone."""
    shares = []
    original = PDCServer.touch_share

    def spy(self, keys, sizes, regions, miss_s, miss_category, **kwargs):
        columns = [keys, sizes, regions, miss_s, miss_category]
        columns += [kwargs.get(name) for name in ("hit_s", "sampled", "span_bytes")]
        columns += [charges for charges, _ in kwargs.get("then", ())]
        for column in columns:
            if column is not None:
                assert type(column) is list and len(column) == len(keys)
                assert not any(isinstance(v, (tuple, list, np.ndarray)) for v in column)
        shares.append(len(keys))
        return original(self, keys, sizes, regions, miss_s, miss_category, **kwargs)

    monkeypatch.setattr(PDCServer, "touch_share", spy)
    for script in (cold_and_warm, half_warm, delta_segments, overlapping_windows):
        sysm, engine = deployment(False)
        sysm.set_tracer(Tracer())
        sysm.set_fault_plan(FaultPlan(seed=4, config=FaultConfig(
            pfs_read_error_rate=0.2, pfs_slow_rate=0.3, max_retries=8,
        )))
        script(sysm, engine)
    assert len(shares) > 100 and max(shares) > 1

    assert not hasattr(RegionCache, "touch_many") and not hasattr(SimClock, "charge_many")
    assert not hasattr(RegionCache, "put")
    callers = set()
    for path in pathlib.Path(inspect.getfile(repro)).parent.rglob("*.py"):
        tree = ast.parse(path.read_text())
        for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
            for fn in [n for n in cls.body if isinstance(n, ast.FunctionDef)]:
                for node in ast.walk(fn):
                    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                            and node.func.attr in ("admit", "tally")):
                        callers.add(f"{cls.name}.{fn.name}")
    assert callers == {"PDCServer.touch_share"}
