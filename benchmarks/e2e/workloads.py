"""The four workloads: generated inputs, deployments, request sequences.

Everything the program sees is made here from ``--seed``: particle arrays,
query objects and write payloads.  The *shape* of a workload -- how many
requests of which kind, in which selectivity band, with which strategy -- is
fixed; the seed draws the particle values, jitters every window inside its
band and shuffles the order.  A later change is measured on the same amount
of work whatever the seed, so run-to-run spread stays below the bounds.

Why these four (see README.md for the full interaction map):

``selective_reads``  narrow windows that prune 60-98 % of regions, through
    every access path; engine bookkeeping dominates, the numpy kernel is idle.
``broad_scans``      windows of 10-100 % selectivity with nothing to prune;
    masks, selection set operations and gathers dominate.
``service_reads``    bursts of overlapping range queries through the
    multi-tenant service: admission, WFQ, windows, semantic cache, monitor.
``service_rw_mix``   the same service with a write tenant; a fifth of the
    requests are in-place overwrites and tail appends that invalidate caches.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ingest import IngestConfig
from repro.obs.monitor import ServiceMonitor
from repro.pdc import PDCConfig, PDCSystem
from repro.query.ast import AndNode, Condition
from repro.query.executor import QueryEngine
from repro.query.selection import Selection
from repro.service import QueryService, ServiceConfig, Tenant
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp

#: The paper's six multi-object conjunctions (section V): energy threshold,
#: upper x bound, lower y bound; ``100 < x``, ``y < 0`` and ``0 < z < 66`` are
#: common to all.
_CONJUNCTIONS = (
    (2.0, 200.0, -90.0), (1.9, 185.0, -92.0), (1.8, 170.0, -94.0),
    (1.7, 155.0, -96.0), (1.35, 130.0, -98.0), (1.3, 125.0, -100.0),
)
BURST = 8
#: The engine workloads run against cold storage: server memory below one
#: region, so nothing stays cached and a request's simulated cost depends on
#: the request alone, not on what ran before it (with a cache the simulated
#: seconds of one sequence move by a tenth with the seed's shuffle).  The
#: service workloads keep a region cache, which shared scans need.
_COLD_STORAGE = 0.0


# --------------------------------------------------------------------- data
def particle_arrays(n: int, seed: int) -> Dict[str, np.ndarray]:
    """VPIC-shaped particle variables ``Energy, x, y, z`` (float32, cell order).

    A thermal bulk plus an exponential tail above 2.0 that is concentrated
    near the ``y = 0`` sheet and six fixed sites along ``x``, so narrow
    high-energy windows are absent from most regions (prunable), and energies
    sorted inside each 64-particle cell (what compresses the bitmap index).
    The benchmark owns its inputs, so this is not ``repro.workloads.vpic``:
    a change there must not move them, and here the sites are constants --
    the seed draws particles, not the geometry.
    """
    ppc = 64
    n_cells = n // ppc
    n = n_cells * ppc
    ny = nz = 16
    nx = n_cells // (ny * nz)
    rng = np.random.default_rng(seed)
    cell = np.arange(n_cells)
    cx, cy, cz = cell // (ny * nz), (cell // nz) % ny, cell % nz
    dx, dy, dz = 300.0 / nx, 200.0 / ny, 132.0 / nz
    jitter = rng.random((3, n))
    x = np.repeat(cx, ppc) * dx + jitter[0] * dx
    y = -100.0 + np.repeat(cy, ppc) * dy + jitter[1] * dy
    z = np.repeat(cz, ppc) * dz + jitter[2] * dz

    sites = 300.0 * (np.arange(6) + 0.5) / 6
    x_weight = np.exp(-(((cx + 0.5) * dx)[:, None] - sites[None, :]) ** 2 / 7.5 ** 2).sum(axis=1)
    weight = np.exp(-((-100.0 + (cy + 0.5) * dy) / 25.0) ** 2) * (x_weight + 1e-6)
    p_cell = np.minimum(0.053 * weight / weight.mean(), 0.95)
    is_tail = rng.random(n) < np.repeat(p_cell, ppc)
    energy = 1.05 * rng.weibull(4.0, n)
    energy[is_tail] = 2.0 + rng.exponential(0.173, int(is_tail.sum()))
    energy = np.sort(energy.reshape(n_cells, ppc), axis=1).reshape(n)
    return {
        "Energy": energy.astype(np.float32), "x": x.astype(np.float32),
        "y": y.astype(np.float32), "z": z.astype(np.float32),
    }


# ----------------------------------------------------------------- requests
@dataclass
class Request:
    """One slot of a workload's sequence.

    ``kind`` is ``query`` | ``get_data`` | ``setop`` | ``gather`` | ``write``.
    ``conds`` is the predicate as plain ``(object, lo, hi)`` triples (open
    bounds; ``None`` = unbounded) for the oracle; ``node`` is the same
    predicate as the program's query object.
    """

    kind: str
    conds: Tuple[Tuple[str, Optional[float], Optional[float]], ...] = ()
    node: object = None
    strategy: Optional[Strategy] = None
    tenant: str = ""
    object_name: str = ""
    op: str = ""
    coords: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None
    offset: Optional[int] = None

    def describe(self) -> str:
        parts = [self.kind, self.tenant, self.object_name, self.op,
                 self.strategy.value if self.strategy else "",
                 repr(self.conds), repr(self.offset)]
        for arr in (self.coords, self.values):
            if arr is not None:
                parts.append(hashlib.sha256(np.ascontiguousarray(arr).data).hexdigest())
        return "|".join(parts)


def _f32(v: float) -> float:
    return float(np.float32(v))


def _node(conds) -> object:
    leaves = []
    for name, lo, hi in conds:
        if lo is not None:
            leaves.append(Condition(name, QueryOp.GT, PDCType.FLOAT, lo))
        if hi is not None:
            leaves.append(Condition(name, QueryOp.LT, PDCType.FLOAT, hi))
    return leaves[0] if len(leaves) == 1 else AndNode(tuple(leaves))


def _query(conds, **kw) -> Request:
    conds = tuple((n, None if lo is None else _f32(lo), None if hi is None else _f32(hi))
                  for n, lo, hi in conds)
    return Request("query", conds=conds, node=_node(conds), **kw)


def _conjunction(k: int, shift=(0.0, 0.0), **kw) -> Request:
    """Paper conjunction ``k``; ``shift`` moves its energy and x thresholds."""
    e_lo, x_hi, y_lo = _CONJUNCTIONS[k]
    return _query((("Energy", e_lo + shift[0], None), ("x", 100.0, x_hi + shift[1]),
                   ("y", y_lo, 0.0), ("z", 0.0, 66.0)), **kw)


def _stratified(rng, lo: float, hi: float, count: int) -> np.ndarray:
    """``count`` values, one per equal cell of [lo, hi), jittered in the cell."""
    step = (hi - lo) / count
    return lo + (np.arange(count) + rng.random(count)) * step


@dataclass
class Workload:
    name: str
    arrays: Dict[str, np.ndarray]
    requests: List[Request]
    #: Short fixed sequence run once per epoch before timing starts.
    warmup: List[Request]
    build: Callable[[Dict[str, np.ndarray]], "Deployment"]
    #: Service workloads submit in bursts of ``BURST`` and drain.
    bursts: bool = False

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.arrays):
            h.update(name.encode())
            h.update(np.ascontiguousarray(self.arrays[name]).data)
        for req in self.warmup + self.requests:
            h.update(req.describe().encode())
        return h.hexdigest()


@dataclass
class Deployment:
    system: PDCSystem
    engine: Optional[QueryEngine] = None
    service: Optional[QueryService] = None
    #: Raw seconds of each set-up part (create_object, build_index, ...).
    parts: Dict[str, float] = field(default_factory=dict)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()


# ------------------------------------------------------------- deployments
def _system(arrays, names, n_regions, n_servers, cache_share, parts, clock, **cfg):
    """PDCSystem over ``names``.  ``cache_share`` is the part of the named
    arrays' bytes that the servers' region caches can hold together."""
    nbytes = arrays[names[0]].nbytes
    system = PDCSystem(PDCConfig(
        n_servers=n_servers,
        region_size_bytes=nbytes // n_regions,
        server_memory_bytes=max(1.0, cache_share * nbytes * len(names) / n_servers),
        **cfg,
    ))
    t0 = clock()
    for name in names:
        system.create_object(name, arrays[name])
    parts["create_object"] = clock() - t0
    return system


def _index_and_replica(system, key, companions, parts, clock):
    t0 = clock()
    system.build_index(key)
    t1 = clock()
    system.build_sorted_replica(key, companions)
    parts["build_index"] = t1 - t0
    parts["build_sorted_replica"] = clock() - t1


def _build_selective(arrays, clock) -> Deployment:
    parts: Dict[str, float] = {}
    system = _system(arrays, ("Energy", "x", "y", "z"), 256, 8, _COLD_STORAGE, parts, clock)
    _index_and_replica(system, "Energy", ("x", "y", "z"), parts, clock)
    return Deployment(system, engine=QueryEngine(system), parts=parts)


def _build_broad(arrays, clock) -> Deployment:
    parts: Dict[str, float] = {}
    system = _system(arrays, ("Energy", "x", "y", "z"), 256, 8, _COLD_STORAGE, parts, clock)
    return Deployment(system, engine=QueryEngine(system), parts=parts)


_READ_TENANTS = (Tenant("gold", weight=4.0), Tenant("silver", weight=2.0),
                 Tenant("bronze", weight=1.0))


def _build_service(arrays, clock, write_tenant: bool) -> Deployment:
    parts: Dict[str, float] = {}
    system = _system(
        arrays, ("energy", "x"), 128, 8, 0.5, parts, clock,
        strategy=Strategy.AUTO, replica_staleness_policy="mark_stale",
    )
    _index_and_replica(system, "energy", ("x",), parts, clock)
    system.set_monitor(ServiceMonitor())
    tenants = _READ_TENANTS
    if write_tenant:
        tenants += (Tenant("ingest", weight=2.0, kind="write"),)
    service = QueryService(system, ServiceConfig(
        tenants=tenants, policy="wfq", batch_window=BURST,
        use_selection_cache=True, ingest=IngestConfig() if write_tenant else None,
    ))
    return Deployment(system, service=service, parts=parts)


# --------------------------------------------------------------- workloads
def _selective_reads(n: int, seed: int, slots: int) -> Workload:
    arrays = particle_arrays(n, seed)
    rng = np.random.default_rng([seed, 1])
    strategies = (Strategy.HISTOGRAM, Strategy.HIST_INDEX, Strategy.SORT_HIST, Strategy.AUTO)
    per_strategy = slots // len(strategies) - len(_CONJUNCTIONS)
    requests = []
    for strat in strategies:
        for lo in _stratified(rng, 2.1, 3.5, per_strategy):
            requests.append(_query((("Energy", lo, lo + 0.1),), strategy=strat))
        requests.extend(_conjunction(k, strategy=strat) for k in range(len(_CONJUNCTIONS)))
    order = rng.permutation(len(requests))
    warmup = [_query((("Energy", 3.4, 3.5),), strategy=s) for s in strategies]
    return Workload("selective_reads", arrays, [requests[i] for i in order], warmup,
                    _build_selective)


def _quantile_window(rng, sorted_values, selectivity):
    """Open window holding ``selectivity`` of the values, seeded position."""
    n = sorted_values.size
    width = int(selectivity * (n - 1))
    start = int(rng.integers(0, n - width))
    return float(sorted_values[start]), float(sorted_values[start + width])


def _broad_scans(n: int, seed: int, slots: int) -> Workload:
    arrays = particle_arrays(n, seed)
    rng = np.random.default_rng([seed, 2])
    sorted_vars = {name: np.sort(arrays[name]) for name in ("Energy", "x")}
    both = (Strategy.FULL_SCAN, Strategy.HISTOGRAM)
    # The sequence is a seeded shuffle of fixed units, so every seed runs the
    # same multiset of (kind, selectivity, strategy):
    #  * 84 single-object windows, selectivity 10-100 % in equal steps of its
    #    logarithm, every fourth followed by a get_data of its selection;
    #  * 21 pairs of multi-object conjunctions (the paper's six under both
    #    strategies, then the same six with seeded thresholds), each pair
    #    followed by a set operation on its two selections and a get_data;
    #  * 11 gathers of values at 64 Ki tracked particle ids in arrival order.
    units: List[List[Request]] = []
    n_windows, n_pairs, n_gathers = 84, 21, 11
    for i, sel in enumerate(0.1 * 10.0 ** _stratified(rng, 0.0, 1.0, n_windows)):
        name = ("Energy", "x")[i % 2]
        lo, hi = _quantile_window(rng, sorted_vars[name], sel)
        unit = [_query(((name, lo, hi),), strategy=both[(i // 2) % 2])]
        if i % 4 == 1:
            unit.append(Request("get_data", object_name=("x", "y", "z")[(i // 4) % 3],
                                strategy=unit[0].strategy))
        units.append(unit)
    conjunctions = [_conjunction(k, strategy=s) for k in range(6) for s in both]
    while len(conjunctions) < 2 * n_pairs:
        k = len(conjunctions) % 6
        conjunctions.append(_conjunction(
            k, strategy=both[(len(conjunctions) // 6) % 2],
            shift=(float(rng.uniform(-0.05, 0.05)), float(rng.uniform(-5.0, 5.0)))))
    ops = ("intersect", "union", "difference")
    for p in range(n_pairs):
        first, second = conjunctions[p], conjunctions[(p + n_pairs) % (2 * n_pairs)]
        units.append([first, second, Request("setop", op=ops[p % 3]),
                      Request("get_data", object_name=("x", "y", "z")[p % 3],
                              strategy=second.strategy)])
    for _ in range(n_gathers):
        coords = rng.integers(0, arrays["x"].size, 1 << 16)
        units.append([Request("gather", object_name="Energy", coords=coords,
                              strategy=Strategy.HISTOGRAM)])
    requests = [req for u in rng.permutation(len(units)) for req in units[u]]
    assert len(requests) == slots, (len(requests), slots)
    warmup = [_query(((name, None, float(sorted_vars[name][n // 100])),), strategy=strat)
              for name in ("Energy", "x") for strat in both]
    return Workload("broad_scans", arrays, requests, warmup, _build_broad)


#: Service windows are quantile ranges ``(start, width)`` of an object's
#: values, so a window's selectivity -- and with it its cost -- is its width
#: wherever the seed puts it.  Zones keep the semantic cache's verdict on
#: every request fixed: wide windows live in [0, 0.66]; *inside* windows are
#: drawn within a hot wide window (served by narrowing it); *outside* medium
#: and narrow windows have a zone each above the wide ones, where no cached
#: selection can cover them (always a miss).
_WIDE, _MEDIUM, _NARROW = 0.40, 0.08, 0.01
_HOT_WIDE = (0.02, 0.26)
_HOT_MEDIUM = (0.05, 0.30, 0.55)
_MEDIUM_ZONE = (0.67, 0.80)
_NARROW_ZONE = (0.89, 0.985)
_APPEND_SIZES = (64, 511, 128, 447, 192, 383, 256, 319)


def _service_bursts(n: int, seed: int, slots: int, rw: bool) -> Workload:
    base = particle_arrays(n, seed)
    arrays = {"energy": base["Energy"], "x": base["x"]}
    rng = np.random.default_rng([seed, 4 if rw else 3])
    n_bursts = slots // BURST
    sorted_vars = {name: np.sort(a) for name, a in arrays.items()}

    def window(name: str, start: float, width: float, tenant: str, strategy=None) -> Request:
        values = sorted_vars[name]
        lo = float(values[int(start * (n - 1))])
        hi = float(values[int((start + width) * (n - 1))])
        return _query(((name, lo, hi),), tenant=tenant, strategy=strategy)

    def indexed_outsider() -> Request:
        """Bronze asks for the bitmap index by name on its narrow energy
        windows; every other request leaves the access path to ``AUTO``."""
        return window("energy", next(outside_narrow["energy"]), _NARROW, "bronze",
                      Strategy.HIST_INDEX)

    def draws(lo: float, hi: float, per_burst: int = 1):
        """Stratified starts, enough for every burst, in seeded order."""
        return iter(rng.permutation(_stratified(rng, lo, hi, per_burst * n_bursts)))

    fresh_wide = {v: draws(0.0, 0.66 - _WIDE) for v in ("energy", "x")}
    outside_medium = {v: draws(*_MEDIUM_ZONE, 2) for v in ("energy", "x")}
    outside_narrow = {v: draws(*_NARROW_ZONE, 2) for v in ("energy", "x")}
    inside = draws(0.0, 1.0, 3)  # position inside the burst's hot wide window

    def inside_hot(name: str, hot: float, width: float, tenant: str) -> Request:
        return window(name, hot + next(inside) * (_WIDE - width), width, tenant)

    def warm(b: int) -> List[Request]:
        """Hot repeats hit the semantic cache, insiders narrow a hot wide
        selection, two narrow outsiders miss."""
        hot, med = _HOT_WIDE[b % 2], _HOT_MEDIUM[b % 3]
        return [
            window("energy", hot, _WIDE, "gold"),
            window("energy", med, _MEDIUM, "gold"),
            inside_hot("energy", hot, _MEDIUM, "silver"),
            inside_hot("energy", hot, _NARROW, "gold"),
            indexed_outsider(),
            window("x", hot, _WIDE, "gold"),
            inside_hot("x", hot, _MEDIUM, "silver"),
            window("x", next(outside_narrow["x"]), _NARROW, "gold"),
        ]

    def cold(b: int) -> List[Request]:
        """Eight fresh windows: every one is evaluated by the engine."""
        return [
            window("energy", next(fresh_wide["energy"]), _WIDE, "gold"),
            window("energy", next(outside_medium["energy"]), _MEDIUM, "gold"),
            window("energy", next(outside_medium["energy"]), _MEDIUM, "silver"),
            window("energy", next(outside_narrow["energy"]), _NARROW, "gold"),
            indexed_outsider(),
            window("x", next(fresh_wide["x"]), _WIDE, "gold"),
            window("x", next(outside_medium["x"]), _MEDIUM, "silver"),
            window("x", next(outside_narrow["x"]), _NARROW, "gold"),
        ]

    region = n // 128
    appended = iter(_APPEND_SIZES * n_bursts)

    def write(append: bool) -> Request:
        """Tail append of a fixed size cycle, or an overwrite of 64-511
        elements inside one seeded region."""
        size = next(appended) if append else int(rng.integers(64, 512))
        offset = None
        if not append:
            offset = int(rng.integers(128)) * region + int(rng.integers(region - size))
        return Request("write", tenant="ingest", object_name="energy", offset=offset,
                       values=(2.0 * rng.random(size)).astype(np.float32))

    def writing(b: int) -> List[Request]:
        """Four writes (which dirty every cached energy selection) and four
        reads: three hot windows and a narrow outsider."""
        hot, med = _HOT_WIDE[b % 2], _HOT_MEDIUM[b % 3]
        return [
            write(append=False), window("energy", hot, _WIDE, "gold"),
            write(append=True), window("energy", med, _MEDIUM, "silver"),
            write(append=False), window("x", hot, _WIDE, "gold"),
            write(append=True),
            indexed_outsider(),
        ]

    # Burst classes in fixed cycles, so the latency distribution has the same
    # modes under every seed: p50 falls inside one class and p95 inside the
    # dearest.  Reads: three warm, one cold.  Mix: two warm, two writing (a
    # fifth of all requests are writes), one cold.
    cycle = (warm, writing, warm, writing, cold) if rw else (warm, warm, warm, cold)
    requests: List[Request] = []
    for b in range(n_bursts):
        requests.extend(cycle[b % len(cycle)](b))
    warmup = [window(v, hot, _WIDE, "gold") for v in ("energy", "x") for hot in _HOT_WIDE]
    warmup += [window("energy", med, _MEDIUM, "silver") for med in _HOT_MEDIUM]
    warmup.append(window("x", 0.9, _NARROW, "bronze"))
    name = "service_rw_mix" if rw else "service_reads"
    return Workload(name, arrays, requests, warmup,
                    lambda a, clock: _build_service(a, clock, rw), bursts=True)


def make_workload(name: str, seed: int, quick: bool = False) -> Workload:
    """Inputs of one workload.  ``quick`` shrinks the arrays eightfold and
    trims the sequence to the 200-slot minimum (a smoke run, never compared
    with a full one)."""
    shrink = 8 if quick else 1
    if name == "selective_reads":
        return _selective_reads((1 << 20) // shrink, seed, 200 if quick else 240)
    if name == "broad_scans":
        return _broad_scans((3 << 19) // shrink, seed, 200)
    if name == "service_reads":
        return _service_bursts((1 << 20) // shrink, seed, 200 if quick else 320, rw=False)
    if name == "service_rw_mix":
        return _service_bursts((1 << 20) // shrink, seed, 200 if quick else 240, rw=True)
    raise ValueError(f"unknown workload {name!r}")
