"""The parallel query engine: plans, evaluates, and times queries.

Implements §III-C/§III-D end to end.  The engine computes query *answers*
on whole-object arrays with vectorized numpy (the simulator holds the real,
scaled-down data), while *costs* are charged per region to per-server
simulated clocks:

1. the client serializes the condition tree and broadcasts it to all
   servers;
2. regions are assigned to servers by a stable, load-balanced mapping;
   each server fetches the metadata of its regions once (then cached);
3. per conjunct, conditions are ordered by global-histogram selectivity;
   regions are pruned by per-region min/max; surviving regions are read
   (or their index files / sorted-replica runs are) and scanned; subsequent
   conditions check only the already-matched locations;
4. servers ship hit counts/coordinates back; the client merges (and for OR,
   deduplicates) them.

Elapsed simulated time of a query is the distance between two
bulk-synchronous barriers around the evaluation — exactly the end-to-end
"client issues query until it receives all results" measurement of §V.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import (
    QueryError,
    QueryShapeError,
    QueryTimeoutError,
    RegionUnavailableError,
)
from ..histogram.selectivity import order_by_selectivity
from ..interval import Interval
from ..obs.tracer import Span
from ..pdc.placement import assign_region_ids
from ..pdc.region import region_key
from ..pdc.system import PDCSystem, ReplicaGroup, StoredObject
from ..storage.aggregator import coords_to_extents
from .ast import Conjunct, QueryNode, conjunct_intervals, objects_of, to_dnf
from .region_constraint import RegionConstraint, normalize_constraint
from .selection import Selection
from .strategies import Strategy

__all__ = [
    "QueryEngine",
    "QueryResult",
    "QuerySpec",
    "BatchResult",
    "GetDataResult",
    "MetaDataQueryResult",
    "StepActual",
]

#: Approximate wire size of a serialized query plan.
_PLAN_BYTES = 256
#: Approximate wire size of one region's metadata record.
_REGION_META_BYTES = 96
#: Page size for binary-search probes on sorted replicas.
_PROBE_BYTES = 4096


@dataclass
class StepActual:
    """Measured outcome of one evaluation step (one condition of one
    conjunct), the executor-side counterpart of
    :class:`~repro.query.planner.StepEstimate`.

    ``hits`` is the *cumulative* count surviving after this condition was
    applied (the conjunct is an AND chain), so the first step's hits are
    directly comparable to the planner's selectivity estimate while later
    steps measure how fast the candidate set shrinks.  Region/byte counters
    are deltas attributable to this step alone; ``elapsed_s`` is how far
    the global simulated-time frontier advanced while the step ran (pure
    reads of the clocks — recording a step never charges anything).
    """

    conjunct: int
    object_name: str
    interval: Interval
    #: Surviving hits after this condition (cumulative within the conjunct).
    hits: int
    regions_read: int = 0
    regions_cached: int = 0
    regions_pruned: int = 0
    index_reads: int = 0
    bytes_read_virtual: float = 0.0
    #: Simulated seconds the time frontier advanced during this step.
    elapsed_s: float = 0.0
    #: Access path actually taken ("full-read+scan", "pruned-read+scan",
    #: "index-probe", "binary-search-run", "replica-slice", "recheck").
    access_path: str = ""


@dataclass
class QueryResult:
    """Outcome of one query evaluation."""

    nhits: int
    selection: Optional[Selection]
    #: End-to-end simulated seconds (client issue → all results received).
    elapsed_s: float
    strategy: Strategy
    #: Objects in evaluation order (after selectivity ordering).
    evaluation_order: List[str] = field(default_factory=list)
    #: Data regions read from storage during evaluation.
    regions_read: int = 0
    #: Regions skipped by histogram min/max pruning.
    regions_pruned: int = 0
    #: Regions served from server caches.
    regions_cached: int = 0
    #: Index files read (PDC-HI).
    index_reads: int = 0
    #: Virtual bytes read from the PFS during this query.
    bytes_read_virtual: float = 0.0
    #: Root span of this query's trace when a real tracer was installed on
    #: the system (``None`` under the default no-op tracer).
    trace: Optional[Span] = field(default=None, repr=False, compare=False)
    #: False when fault recovery had to degrade the answer: some regions
    #: stayed unreadable after retries, or the query timed out.  A degraded
    #: result is a *subset* of the true answer (hits in lost regions are
    #: dropped, never invented) — see docs/robustness.md.
    complete: bool = True
    #: The query exceeded its simulated-time budget (partial result).
    timed_out: bool = False
    #: Storage-read retries performed during this query (fault recovery).
    retries: int = 0
    #: Crashed servers whose region share was re-assigned mid-query.
    failovers: int = 0
    #: server id → error messages for reads that exhausted their retries.
    server_errors: Dict[int, List[str]] = field(default_factory=dict)
    #: Region cache keys whose payloads were unreadable (degraded mode).
    lost_regions: List[str] = field(default_factory=list)
    #: How the semantic selection cache served this query: "" (evaluated
    #: normally), "hit" (exact interval match, zero I/O), or "narrowed"
    #: (subsumed by a cached superset interval, filtered client-side).
    semantic_cache: str = ""
    #: Per-condition measured actuals in evaluation order — what EXPLAIN
    #: ANALYZE joins against the planner's :class:`StepEstimate` s.
    step_actuals: List[StepActual] = field(default_factory=list, repr=False)
    #: This query's attributed share of its batch's shared-scan pass (both
    #: zero outside a batch): the virtual bytes read on its behalf by the
    #: shared pass, and the matching slice of the pass's elapsed time.
    #: Without these, a batched query whose regions were preloaded would
    #: report zero read cost and EXPLAIN ANALYZE would under-account it.
    batch_shared_bytes_virtual: float = 0.0
    batch_shared_elapsed_s: float = 0.0


@dataclass
class QuerySpec:
    """One query of a batch: a condition tree plus its per-query options
    (what :meth:`QueryEngine.execute` takes as keyword arguments)."""

    node: QueryNode
    want_selection: bool = True
    region_constraint: Optional[RegionConstraint] = None
    strategy: Optional[Strategy] = None
    timeout_s: Optional[float] = None
    #: Service-level dispatch priority (higher first).  The engine itself
    #: ignores it; the service frontend and priority-aware schedulers
    #: order on it (``PDCquery_set_priority``).
    priority: int = 0


@dataclass
class BatchResult:
    """Outcome of one shared-scan batch execution.

    ``results[i]`` is query *i*'s individually-timed :class:`QueryResult`
    (or ``None`` when it raised — see ``errors``).  The ``shared_*``
    fields account the batch-level shared-scan pass: regions demanded by
    more than one query in the window are read exactly once, and their
    PFS bytes, retries, and fault charges land here instead of on any
    single query.
    """

    results: List[Optional[QueryResult]]
    #: Queries admitted to this batch.
    width: int = 0
    #: Simulated seconds from batch admission to the last query's result.
    elapsed_s: float = 0.0
    #: Distinct (object, region) pairs demanded by >= 2 queries.
    shared_regions: int = 0
    #: Shared regions actually read from storage by the batch pass.
    shared_reads: int = 0
    #: Shared regions already resident when the batch pass ran.
    shared_cached: int = 0
    #: Virtual bytes the shared pass read from the PFS.
    shared_bytes_virtual: float = 0.0
    #: Virtual bytes saved vs each query reading its demand itself:
    #: sum over shared reads of (demand count - 1) * region bytes.
    saved_bytes_virtual: float = 0.0
    #: Storage-read retries charged to the shared pass (fault recovery).
    retries: int = 0
    #: Queries served by an exact semantic-cache match (zero I/O).
    semantic_hits: int = 0
    #: Queries served by narrowing a cached superset selection (no I/O).
    semantic_narrowed: int = 0
    #: Queries served by healing a dirty cached selection in place
    #: (region-scoped writes re-evaluated over just the written spans).
    semantic_repaired: int = 0
    #: Cacheable queries that missed the semantic cache.
    semantic_misses: int = 0
    #: query index -> exception raised by that query's evaluation.
    errors: Dict[int, Exception] = field(default_factory=dict)
    #: server id -> shared-pass read errors (regions left for the
    #: demanding queries to retry individually).
    server_errors: Dict[int, List[str]] = field(default_factory=dict)

    @property
    def total_bytes_read_virtual(self) -> float:
        """Virtual PFS bytes the whole batch read: shared pass plus every
        query's own reads."""
        return self.shared_bytes_virtual + sum(
            r.bytes_read_virtual for r in self.results if r is not None
        )


@dataclass
class GetDataResult:
    """Outcome of materializing a selection's values.

    ``elapsed_s`` is the barrier-to-barrier simulated time of the
    materialization alone; regions preloaded earlier (by evaluation, a
    batch's shared pass, or :meth:`QueryEngine.preload`) show up as
    ``regions_cached`` with zero bytes here — their read cost was charged
    where the read actually happened, never dropped.
    """

    values: np.ndarray
    elapsed_s: float
    regions_read: int = 0
    regions_cached: int = 0
    #: Virtual PFS bytes this materialization itself read (cache-miss
    #: regions only; cached regions were paid for by whoever loaded them).
    bytes_read_virtual: float = 0.0


@dataclass
class MetaDataQueryResult:
    """Outcome of a combined metadata + data query (§VI-C)."""

    object_names: List[str]
    per_object_hits: Dict[str, int]
    total_hits: int
    elapsed_s: float


def hash_name(name: str) -> int:
    """Deterministic object-name hash (server assignment for small
    objects)."""
    import zlib

    return zlib.crc32(name.encode("utf-8"))


class QueryEngine:
    """Query evaluation service bound to one :class:`PDCSystem`.

    The two boolean knobs exist for the ablation benches: disabling
    ``enable_ordering`` evaluates multi-object conditions in user order
    (no selectivity planning); disabling ``enable_pruning`` reads every
    region regardless of histogram min/max.
    """

    def __init__(
        self,
        system: PDCSystem,
        enable_ordering: bool = True,
        enable_pruning: bool = True,
    ) -> None:
        self.system = system
        self.enable_ordering = enable_ordering
        self.enable_pruning = enable_pruning
        #: Simulated-time deadline of the query in flight (None = no limit).
        self._deadline: Optional[float] = None

    def _check_deadline(self) -> None:
        """Raise :class:`QueryTimeoutError` once simulated time passes the
        in-flight query's deadline (installed by :meth:`execute`)."""
        deadline = self._deadline
        if deadline is None:
            return
        sysm = self.system
        now = max(
            max(s.clock.now for s in sysm.alive_servers), sysm.client_clock.now
        )
        if now > deadline:
            raise QueryTimeoutError(
                f"query passed its simulated deadline: t={now:.6f}s > "
                f"{deadline:.6f}s"
            )

    # ------------------------------------------------------------ public API
    def execute(
        self,
        root: QueryNode,
        want_selection: bool = True,
        region_constraint: Optional[RegionConstraint] = None,
        strategy: Optional[Strategy] = None,
        timeout_s: Optional[float] = None,
    ) -> QueryResult:
        """Evaluate a condition tree; returns hit count (and selection).

        ``region_constraint`` is the optional spatial constraint of
        ``PDCquery_set_region``: a half-open flat coordinate range, or an
        N-D :class:`HyperSlab` over the objects' logical shape.  Either way
        it need not align with PDC's internal region partitions (§III-A).

        ``timeout_s`` bounds the query's *simulated* elapsed time
        (defaulting to the installed fault plan's ``query_timeout_s``);
        when exceeded, evaluation stops and a partial result is returned
        with ``timed_out=True`` and ``complete=False``.
        """
        sysm = self.system
        tracer = sysm.tracer
        with tracer.span("query", sysm.client_clock, category="query") as qspan:
            strat = strategy or sysm.strategy
            with tracer.span("plan", sysm.client_clock, category="plan") as pspan:
                if strat is Strategy.AUTO:
                    # Cost-based selection (§IX future work): planning uses
                    # only server-cached metadata, charged as client-side
                    # overhead.
                    from .planner import choose_strategy

                    strat, _ = choose_strategy(sysm, root)
                    sysm.client_clock.charge(
                        sysm.cost.params.client_overhead_s, "plan"
                    )
                pspan.set(strategy=strat.name)
                names = objects_of(root)
                if not names:
                    raise QueryError("query references no objects")
                objs = [sysm.get_object(n) for n in names]
                domain = objs[0].n_elements
                for o in objs[1:]:
                    if o.n_elements != domain or o.meta.dims != objs[0].meta.dims:
                        raise QueryShapeError(
                            f"objects in one query must share dimensions: "
                            f"{objs[0].name}={objs[0].meta.dims or domain}, "
                            f"{o.name}={o.meta.dims or o.n_elements}"
                        )
                (cstart, cstop), slab = normalize_constraint(
                    region_constraint, domain
                )
            qspan.set(strategy=strat.name, objects=list(names))

            t_start = sysm.sync_clocks()

            # Fault setup: per-query straggler drags, simulated deadline,
            # retry baseline.  All of this is skipped (bit-identically)
            # when no plan is installed.
            stats = QueryResult(
                nhits=0, selection=None, elapsed_s=0.0, strategy=strat
            )
            plan = sysm.fault_plan
            retries_before = sum(s.retries_total for s in sysm.servers)
            dragged: List = []
            if plan is not None and plan.config.server_slow_rate > 0.0:
                for server in sysm.alive_servers:
                    factor = plan.server_slow_factor(server.server_id)
                    if factor != 1.0:
                        server.clock.drag = factor
                        dragged.append(server)
                        tracer.instant(
                            f"slow:server{server.server_id}", server.clock,
                            category="fault", factor=factor,
                        )
            if timeout_s is not None:
                self._deadline = t_start + timeout_s
            elif plan is not None and plan.config.query_timeout_s is not None:
                self._deadline = t_start + plan.config.query_timeout_s
            else:
                self._deadline = None

            try:
                # 1. Client serializes + broadcasts the plan; servers receive.
                # Servers meeting the client's broadcast instant is
                # communication rendezvous, not idle waiting.
                with tracer.span("broadcast", sysm.client_clock, category="comm"):
                    sysm.client_clock.charge(sysm.cost.params.client_overhead_s, "client")
                    sysm.client_clock.charge(
                        sysm.cost.net_time(_PLAN_BYTES, scaled=False), "net"
                    )
                    for server in sysm.alive_servers:
                        server.clock.advance_to(sysm.client_clock.now, category="comm")
                        server.clock.charge(
                            sysm.cost.net_time(_PLAN_BYTES, scaled=False), "net"
                        )
                        server.clock.charge(sysm.cost.params.server_overhead_s, "server")

                    # 2. Metadata distribution (charged once per object per
                    # server).
                    self._ensure_metadata(names)

                # 3. DNF evaluation with OR-union at the client.
                conjunct_leaf_sets = to_dnf(root)
                coords_acc: Optional[np.ndarray] = None
                try:
                    self._check_deadline()
                    for ci, leaves in enumerate(conjunct_leaf_sets):
                        conjunct = conjunct_intervals(leaves)
                        if conjunct is None:  # contradictory conditions: matches nothing
                            continue
                        with tracer.span(
                            f"conjunct[{ci}]", sysm.client_clock, category="conjunct",
                            objects=sorted(conjunct),
                        ):
                            coords = self._eval_conjunct(
                                conjunct, (cstart, cstop), strat, stats, ci
                            )
                        if slab is not None:
                            # Exact N-D filtering of the bounding-range hits; servers
                            # evaluate whole regions intersecting the slab's bounds,
                            # which is what the cost accounting above charged.
                            coords = slab.filter_flat(coords)
                        if coords_acc is None:
                            coords_acc = coords
                        elif coords.size:
                            # §III-C: OR results combined and deduplicated via merge.
                            sysm.client_clock.charge(
                                sysm.cost.scan_time(coords_acc.size + coords.size), "merge"
                            )
                            coords_acc = np.union1d(coords_acc, coords)
                        # §III-C special case: a disjunct selecting everything ends the
                        # union early.
                        full_count = slab.n_elements if slab is not None else cstop - cstart
                        if coords_acc is not None and coords_acc.size == full_count:
                            break
                        self._check_deadline()
                except QueryTimeoutError as exc:
                    # Degrade: keep whatever the finished conjuncts produced.
                    stats.timed_out = True
                    stats.complete = False
                    tracer.instant(
                        "query_timeout", sysm.client_clock, category="fault",
                        detail=str(exc),
                    )
                if coords_acc is None:
                    coords_acc = np.zeros(0, dtype=np.int64)
            finally:
                for server in dragged:
                    server.clock.drag = 1.0
                self._deadline = None
                stats.retries = (
                    sum(s.retries_total for s in sysm.servers) - retries_before
                )

            # 4. Result shipping: servers send their share, client aggregates.
            with tracer.span(
                "result_transfer", sysm.client_clock, category="result_transfer",
                nhits=int(coords_acc.size),
            ):
                self._charge_result_transfer(objs[0], coords_acc, want_selection)

            t_end = sysm.sync_clocks()
            stats.nhits = int(coords_acc.size)
            stats.selection = Selection(coords_acc, domain) if want_selection else None
            stats.elapsed_s = t_end - t_start
            qspan.set(
                nhits=stats.nhits, elapsed_s=stats.elapsed_s,
                complete=stats.complete,
            )
        stats.trace = qspan.span
        self._record_query_metrics(stats)
        return stats

    # --------------------------------------------------------- batch execution
    def execute_batch(
        self,
        queries: Sequence[object],
        selection_cache=None,
    ) -> BatchResult:
        """Evaluate a window of queries with shared-scan batching.

        Regions demanded by **more than one** query of the window are made
        resident by a single shared read pass before per-query evaluation,
        so the batch pays their PFS bytes (and any fault retries) once;
        each query then executes individually, reporting its own simulated
        latency, trace, and metrics exactly as :meth:`execute` would.  A
        batch whose queries demand disjoint region sets performs no shared
        pass at all and is bit-identical to running the queries
        sequentially.

        ``queries`` items are :class:`QuerySpec` instances or bare
        condition trees.  ``selection_cache`` is an optional
        :class:`~repro.query.scheduler.SelectionCache`: single-object
        interval queries are served from it — exactly, or by narrowing a
        cached superset interval's selection — with zero storage I/O.
        """
        sysm = self.system
        specs = [
            q if isinstance(q, QuerySpec) else QuerySpec(node=q) for q in queries
        ]
        batch = BatchResult(results=[None] * len(specs), width=len(specs))
        t_start = sysm.sync_clocks()

        # Demand estimation: a deterministic, metadata-only dry run of each
        # query's first-condition region set.  Queries whose demand cannot
        # be derived from metadata alone (index probes, sorted-replica
        # runs, unresolvable plans) contribute nothing and amortize through
        # the ordinary region caches instead.
        demand_counts: Dict[Tuple[str, int], int] = {}
        spec_demands: List[set] = []
        for spec in specs:
            keys = set()
            for name, rids in self._batch_demand(spec).items():
                for rid in rids:
                    keys.add((name, int(rid)))
            spec_demands.append(keys)
            for k in keys:
                demand_counts[k] = demand_counts.get(k, 0) + 1
        shared = sorted(k for k, c in demand_counts.items() if c >= 2)
        batch.shared_regions = len(shared)

        retries_before = sum(s.retries_total for s in sysm.servers)
        read_vbytes: Dict[Tuple[str, int], float] = {}
        shared_elapsed = 0.0
        if shared:
            read_vbytes = self._shared_read_pass(shared, demand_counts, batch)
            shared_elapsed = sysm.sync_clocks() - t_start
        batch.retries = sum(s.retries_total for s in sysm.servers) - retries_before

        def _attribute_share(i: int, res: QueryResult) -> None:
            # Satellite fix: a query whose regions the shared pass preloaded
            # would otherwise report zero read cost; give each query its
            # demand-weighted slice of the pass's bytes and elapsed time.
            if not read_vbytes:
                return
            share = sum(
                read_vbytes[k] / demand_counts[k]
                for k in spec_demands[i]
                if k in read_vbytes
            )
            if share <= 0.0:
                return
            res.batch_shared_bytes_virtual = share
            if batch.shared_bytes_virtual > 0.0:
                res.batch_shared_elapsed_s = (
                    shared_elapsed * share / batch.shared_bytes_virtual
                )

        for i, spec in enumerate(specs):
            ck = self._semantic_key(spec) if selection_cache is not None else None
            if ck is not None:
                served = selection_cache.fetch(sysm, ck[0], ck[1])
                if served is not None:
                    sel, kind, scanned = served
                    served_res = self._cache_served_result(
                        spec, sel, kind, scanned
                    )
                    _attribute_share(i, served_res)
                    batch.results[i] = served_res
                    if kind == "hit":
                        batch.semantic_hits += 1
                    elif kind == "repaired":
                        batch.semantic_repaired += 1
                    else:
                        batch.semantic_narrowed += 1
                    continue
                batch.semantic_misses += 1
            try:
                res = self.execute(
                    spec.node,
                    want_selection=spec.want_selection,
                    region_constraint=spec.region_constraint,
                    strategy=spec.strategy,
                    timeout_s=spec.timeout_s,
                )
            except Exception as exc:  # per-query isolation inside a batch
                batch.errors[i] = exc
                continue
            _attribute_share(i, res)
            batch.results[i] = res
            if (
                ck is not None
                and res.complete
                and not res.timed_out
                and res.selection is not None
            ):
                selection_cache.put(ck[0], ck[1], res.selection)

        batch.elapsed_s = sysm.sync_clocks() - t_start
        self._record_batch_metrics(batch)
        return batch

    def _shared_read_pass(
        self,
        shared: List[Tuple[str, int]],
        demand_counts: Dict[Tuple[str, int], int],
        batch: BatchResult,
    ) -> Dict[Tuple[str, int], float]:
        """Read each shared (object, region) once, charged to the batch.

        Returns the virtual bytes actually read per (object, region) —
        cache hits and unreadable regions contribute nothing — so the
        caller can attribute each query its demand-weighted share."""
        sysm = self.system
        read_vbytes: Dict[Tuple[str, int], float] = {}
        with sysm.tracer.span(
            "batch_shared_read", sysm.client_clock, category="batch",
            regions=len(shared),
        ):
            by_object: Dict[str, List[int]] = {}
            for name, rid in shared:
                by_object.setdefault(name, []).append(rid)
            for name in sorted(by_object):
                obj = sysm.get_object(name)
                rids = np.asarray(sorted(by_object[name]), dtype=np.int64)
                readers = self._active_readers(rids)
                for server, mine in self._regions_by_server(rids):
                    for rid in mine:
                        key = region_key(name, int(rid))
                        nbytes = int(obj.counts[rid]) * obj.itemsize
                        try:
                            hit = server.preload_region(
                                key, nbytes, sysm.config.pdc_stripe_count,
                                readers, tier=obj.tier_of(int(rid)),
                            )
                        except RegionUnavailableError as exc:
                            # Leave the region to the demanding queries'
                            # own retry/degrade machinery.
                            batch.server_errors.setdefault(
                                server.server_id, []
                            ).append(str(exc))
                            continue
                        if hit:
                            batch.shared_cached += 1
                        else:
                            vbytes = nbytes * sysm.cost.virtual_scale
                            batch.shared_reads += 1
                            batch.shared_bytes_virtual += vbytes
                            batch.saved_bytes_virtual += vbytes * (
                                demand_counts[(name, int(rid))] - 1
                            )
                            read_vbytes[(name, int(rid))] = vbytes
        return read_vbytes

    def _batch_demand(self, spec: QuerySpec) -> Dict[str, np.ndarray]:
        """Data regions a query is expected to read, from metadata alone.

        Mirrors the per-conjunct ordering/pruning of :meth:`_eval_conjunct`
        without charging any cost.  Paths whose reads are not plain data
        regions (index probes, sorted-replica runs) return no demand —
        their sharing happens through the ordinary server caches.  Any
        failure degrades to "no demand"; the query still runs normally.
        """
        sysm = self.system
        demand: Dict[str, set] = {}
        try:
            strat = spec.strategy or sysm.strategy
            if strat is Strategy.AUTO:
                from .planner import choose_strategy

                strat, _ = choose_strategy(sysm, spec.node, record=False)
            names = objects_of(spec.node)
            if not names:
                return {}
            objs = [sysm.get_object(n) for n in names]
            domain = objs[0].n_elements
            for o in objs[1:]:
                if o.n_elements != domain or o.meta.dims != objs[0].meta.dims:
                    return {}
            constraint, _slab = normalize_constraint(
                spec.region_constraint, domain
            )
            scratch = QueryResult(
                nhits=0, selection=None, elapsed_s=0.0, strategy=strat
            )
            for leaves in to_dnf(spec.node):
                conjunct = conjunct_intervals(leaves)
                if conjunct is None:
                    continue
                items = list(conjunct.items())
                if strat.uses_histogram and self.enable_ordering:
                    hists = {
                        n: sysm.get_object(n).meta.global_histogram
                        for n, _ in items
                        if sysm.get_object(n).meta.global_histogram is not None
                    }
                    ordered = [
                        (n, iv) for n, iv, _ in order_by_selectivity(items, hists)
                    ]
                    if any(
                        hists.get(n) is not None
                        and hists[n].estimate_hits(iv)[1] == 0
                        for n, iv in ordered
                    ):
                        continue
                else:
                    ordered = items
                first_name, first_iv = ordered[0]
                if strat is Strategy.FULL_SCAN:
                    for name, _ in ordered:
                        o = sysm.get_object(name)
                        demand.setdefault(name, set()).update(
                            int(r)
                            for r in self._regions_in_constraint(o, constraint)
                        )
                    continue
                if strat is Strategy.SORT_HIST:
                    replica = sysm.replica_covering([n for n, _ in ordered])
                    if replica is not None and replica.replica.key_name == first_name:
                        continue  # replica-run reads, not data regions
                obj = sysm.get_object(first_name)
                if strat is Strategy.HIST_INDEX and obj.indexes is not None:
                    continue  # index probes, not data regions
                surviving = self._prune_regions(obj, first_iv, constraint, scratch)
                demand.setdefault(first_name, set()).update(
                    int(r) for r in surviving
                )
        except Exception:
            return {}
        return {
            name: np.asarray(sorted(rids), dtype=np.int64)
            for name, rids in demand.items()
            if rids
        }

    def _semantic_key(self, spec: QuerySpec) -> Optional[Tuple[str, Interval]]:
        """(object, interval) when the query is a single-object interval
        with no spatial constraint — the only shape the semantic selection
        cache memoizes."""
        if spec.region_constraint is not None:
            return None
        try:
            leaf_sets = to_dnf(spec.node)
        except QueryError:
            return None
        if len(leaf_sets) != 1:
            return None
        conjunct = conjunct_intervals(leaf_sets[0])
        if conjunct is None or len(conjunct) != 1:
            return None
        ((name, interval),) = conjunct.items()
        return name, interval

    def _cache_served_result(
        self, spec: QuerySpec, sel: Selection, kind: str, scanned: int
    ) -> QueryResult:
        """Synthesize a :class:`QueryResult` for a semantic-cache serve.

        No server participates: the client pays its fixed overhead plus
        (for a narrowing serve) the vectorized filter over the superset's
        cached coordinates.
        """
        sysm = self.system
        t0 = sysm.sync_clocks()
        sysm.client_clock.charge(sysm.cost.params.client_overhead_s, "client")
        if scanned:
            sysm.client_clock.charge(sysm.cost.scan_time(int(scanned)), "scan")
        elapsed = sysm.sync_clocks() - t0
        return QueryResult(
            nhits=sel.nhits,
            selection=sel if spec.want_selection else None,
            elapsed_s=elapsed,
            strategy=spec.strategy or sysm.strategy,
            semantic_cache=kind,
        )

    def _record_batch_metrics(self, batch: BatchResult) -> None:
        """Fold one batch's shared-scan accounting into the registry."""
        m = self.system.metrics
        m.counter(
            "pdc_batches_total", "Shared-scan query batches executed."
        ).inc()
        m.histogram(
            "pdc_batch_width", "Queries admitted per shared-scan batch."
        ).observe(batch.width)
        m.counter(
            "pdc_batch_shared_regions_total",
            "Regions demanded by more than one query of a batch.",
        ).inc(batch.shared_regions)
        m.counter(
            "pdc_batch_shared_reads_total",
            "Shared regions read once on behalf of a whole batch.",
        ).inc(batch.shared_reads)
        m.counter(
            "pdc_batch_saved_bytes_virtual_total",
            "Virtual bytes saved by shared-scan batching vs sequential reads.",
        ).inc(batch.saved_bytes_virtual)
        lookups = m.counter(
            "pdc_semantic_cache_lookups_total",
            "Semantic selection-cache lookups by result.",
            labels=("result",),
        )
        if batch.semantic_hits:
            lookups.labels(result="hit").inc(batch.semantic_hits)
        if batch.semantic_narrowed:
            lookups.labels(result="narrowed").inc(batch.semantic_narrowed)
        if batch.semantic_repaired:
            lookups.labels(result="repaired").inc(batch.semantic_repaired)
        if batch.semantic_misses:
            lookups.labels(result="miss").inc(batch.semantic_misses)

    def get_data(
        self,
        selection: Selection,
        object_name: str,
        strategy: Optional[Strategy] = None,
    ) -> GetDataResult:
        """Load the values of a selection into (client) memory
        (``PDCquery_get_data``).

        Regions already cached on servers (because evaluation read them) are
        served from memory; otherwise whole regions holding hits are read
        from storage — PDC reads entire regions to avoid many small
        non-contiguous accesses (§III-E), then ships only the hit bytes.
        """
        sysm = self.system
        strat = strategy or sysm.strategy
        obj = sysm.get_object(object_name)
        if selection.domain_size != obj.n_elements:
            raise QueryError(
                f"selection domain {selection.domain_size} != object "
                f"{object_name!r} size {obj.n_elements}"
            )
        if strat is Strategy.AUTO:
            # Resolve AUTO through the cost-based planner, as execute()
            # does; without this the `strat is Strategy.SORT_HIST` test
            # below could never select the sorted-replica read path.
            from .planner import choose_get_data_strategy

            strat = choose_get_data_strategy(sysm, object_name, selection)
            sysm.client_clock.charge(sysm.cost.params.client_overhead_s, "plan")
        t_start = sysm.sync_clocks()
        result = GetDataResult(values=obj.data[selection.coords].copy(), elapsed_s=0.0)

        replica = sysm.replica_covering([object_name]) if strat is Strategy.SORT_HIST else None
        if replica is not None:
            self._charge_get_data_replica(replica, object_name, selection, result)
        else:
            self._charge_get_data_original(obj, selection, result)

        # Ship hit values to the (parallel) application: per-server streams,
        # then a small completion aggregation at the issuing rank.
        per_server = self._bytes_per_server(obj, selection.coords, obj.itemsize)
        for server, nbytes in zip(sysm.alive_servers, per_server):
            if nbytes:
                server.clock.charge(sysm.cost.net_time(int(nbytes)), "net")
        sysm.client_clock.advance_to(
            max(s.clock.now for s in sysm.alive_servers), category="comm"
        )
        sysm.client_clock.charge(sysm.cost.net_time(16 * sysm.n_servers, scaled=False), "net")

        t_end = sysm.sync_clocks()
        result.elapsed_s = t_end - t_start
        return result

    def get_data_batch(
        self,
        selection: Selection,
        object_name: str,
        batch_size: int,
        strategy: Optional[Strategy] = None,
    ):
        """Iterate ``PDCquery_get_data_batch``: yields
        :class:`GetDataResult` chunks of at most ``batch_size`` hits, for
        results too large to hold in client memory at once."""
        for chunk in selection.batches(batch_size):
            yield self.get_data(chunk, object_name, strategy=strategy)

    def get_nhits(self, root: QueryNode, **kwargs) -> Tuple[int, float]:
        """``PDCquery_get_nhits``: hit count only (no coordinate shipping)."""
        res = self.execute(root, want_selection=False, **kwargs)
        return res.nhits, res.elapsed_s

    def preload(self, names: Sequence[str]) -> float:
        """Read every region of the named objects into the server caches.

        This is the PDC-F pre-load phase of §VI-A: the paper amortizes this
        one-time read across the query sequence ("total read time / number
        of queries").  Returns the simulated seconds the pre-load took.
        """
        sysm = self.system
        t_start = sysm.sync_clocks()
        stats = QueryResult(nhits=0, selection=None, elapsed_s=0.0, strategy=Strategy.FULL_SCAN)
        for name in names:
            obj = sysm.get_object(name)
            self._charge_data_reads(
                obj, np.arange(obj.n_regions, dtype=np.int64), stats
            )
        return sysm.sync_clocks() - t_start

    # --------------------------------------------------- metadata + data path
    def metadata_data_query(
        self,
        tag_conditions: Dict[str, object],
        interval: Interval,
        strategy: Optional[Strategy] = None,
    ) -> "MetaDataQueryResult":
        """Combined metadata + data query over many small objects (§VI-C).

        First the metadata service locates the objects whose tags match
        (fast: pre-loaded in-memory records, hash-sharded); then each
        selected object's data is evaluated against ``interval`` — one
        region per small object, distributed across servers by object-name
        hash.  Returns per-object hit counts and total time.
        """
        sysm = self.system
        strat = strategy or sysm.strategy
        t_start = sysm.sync_clocks()

        # Metadata phase, charged to the client's clock (the paper: PDC
        # "can locate the 1000 objects instantly").
        names = sysm.metadata.query_tags(tag_conditions, clock=sysm.client_clock)
        for server in sysm.alive_servers:
            server.clock.advance_to(sysm.client_clock.now, category="comm")

        total_hits = 0
        per_object: Dict[str, int] = {}
        readers = sysm.n_servers
        alive = sysm.alive_servers
        for name in names:
            obj = sysm.get_object(name)
            server = alive[hash_name(name) % len(alive)]
            use_index = strat is Strategy.HIST_INDEX and obj.indexes is not None
            if strat.uses_histogram:
                # Vectorized region elimination: one min/max overlap test
                # over all regions, then iterate only the survivors (same
                # ascending region order, so every charge is identical to
                # the per-region scalar test this replaces).
                surviving = np.flatnonzero(
                    interval.overlaps_range_arrays(obj.rmin, obj.rmax)
                )
            else:
                surviving = range(obj.n_regions)
            for rid in surviving:
                nbytes = int(obj.counts[rid]) * obj.itemsize
                if use_index:
                    server.ensure_region(
                        region_key(name, rid, replica="idx"),
                        int(obj.index_nbytes[rid]),
                        1,
                        sysm.config.pdc_stripe_count,
                        readers,
                        category="index_read",
                    )
                    server.clock.charge(
                        sysm.cost.wah_scan_time(int(obj.index_words[rid])), "scan"
                    )
                    _, cand = obj.indexes[rid].count_range(interval)
                    if obj.index_delta_counts is not None:
                        # Uncompacted WAH delta segments: every delta
                        # position is a candidate until compaction.
                        n_delta = int(obj.index_delta_counts[rid])
                        if n_delta:
                            server.clock.charge(
                                sysm.cost.scan_time(n_delta), "scan"
                            )
                            cand += n_delta
                    if cand:
                        server.ensure_region(
                            region_key(name, rid), nbytes, 1,
                            sysm.config.pdc_stripe_count, readers,
                        )
                        server.clock.charge(sysm.cost.scan_time(cand), "scan")
                else:
                    server.ensure_region(
                        region_key(name, rid), nbytes, 1,
                        sysm.config.pdc_stripe_count, readers,
                    )
                    server.clock.charge(
                        sysm.cost.scan_time(int(obj.counts[rid])), "scan"
                    )
            hits = self._count_hits(obj, interval)
            per_object[name] = hits
            total_hits += hits

        # Ship per-object counts back.
        for server in sysm.alive_servers:
            server.clock.charge(sysm.cost.net_time(16 * max(1, len(names))), "net")
        sysm.client_clock.advance_to(
            max(s.clock.now for s in sysm.alive_servers), category="comm"
        )
        sysm.client_clock.charge(sysm.cost.net_time(16 * max(1, len(names))), "net")

        t_end = sysm.sync_clocks()
        return MetaDataQueryResult(
            object_names=names,
            per_object_hits=per_object,
            total_hits=total_hits,
            elapsed_s=t_end - t_start,
        )

    # -------------------------------------------------------- conjunct eval
    def _frontier(self) -> float:
        """Current global simulated time (pure read, charges nothing)."""
        sysm = self.system
        return max(
            max(s.clock.now for s in sysm.alive_servers), sysm.client_clock.now
        )

    @staticmethod
    def _counter_snapshot(stats: QueryResult) -> Tuple[int, int, int, int, float]:
        return (
            stats.regions_read, stats.regions_cached, stats.regions_pruned,
            stats.index_reads, stats.bytes_read_virtual,
        )

    def _make_step(
        self,
        stats: QueryResult,
        ci: int,
        name: str,
        interval: Interval,
        hits: int,
        before: Tuple[int, int, int, int, float],
        t0: float,
        path: str,
    ) -> StepActual:
        """A :class:`StepActual` from counter deltas since ``before`` and
        the frontier advance since ``t0``.  Bookkeeping only — nothing here
        touches a clock or a cache."""
        return StepActual(
            conjunct=ci,
            object_name=name,
            interval=interval,
            hits=int(hits),
            regions_read=stats.regions_read - before[0],
            regions_cached=stats.regions_cached - before[1],
            regions_pruned=stats.regions_pruned - before[2],
            index_reads=stats.index_reads - before[3],
            bytes_read_virtual=stats.bytes_read_virtual - before[4],
            elapsed_s=self._frontier() - t0,
            access_path=path,
        )

    def _eval_conjunct(
        self,
        conjunct: Conjunct,
        constraint: Tuple[int, int],
        strat: Strategy,
        stats: QueryResult,
        ci: int = 0,
    ) -> np.ndarray:
        """Evaluate one AND-group of per-object intervals; returns sorted
        hit coordinates."""
        sysm = self.system
        cstart, cstop = constraint

        # Order conditions by estimated selectivity (histogram strategies).
        items = list(conjunct.items())
        if strat.uses_histogram and self.enable_ordering:
            hists = {
                n: sysm.get_object(n).meta.global_histogram
                for n, _ in items
                if sysm.get_object(n).meta.global_histogram is not None
            }
            ordered = [(n, iv) for n, iv, _ in order_by_selectivity(items, hists)]
            # §III-C: if the histogram proves a condition matches nothing,
            # skip the whole conjunct without touching storage.
            for n, iv in ordered:
                h = hists.get(n)
                if h is not None and h.estimate_hits(iv)[1] == 0:
                    return np.zeros(0, dtype=np.int64)
        else:
            ordered = items
        stats.evaluation_order = [n for n, _ in ordered]

        first_name, first_iv = ordered[0]

        if strat is Strategy.SORT_HIST:
            replica = sysm.replica_covering([n for n, _ in ordered])
            if replica is not None and replica.replica.key_name == first_name:
                return self._eval_sorted(replica, ordered, constraint, stats, ci)
            # Sorted replica not applicable (e.g. the planner put another
            # object first, Fig. 4's low-energy-selectivity queries):
            # §VI-B — behaves like the histogram-only path.

        #: Read work done up front for *later* conditions (FULL_SCAN
        #: pre-loads every object) — folded into those conditions' step
        #: actuals when the per-condition loop reaches them.
        preloaded_steps: Dict[str, StepActual] = {}
        if strat is Strategy.FULL_SCAN:
            # §III-D1: pre-load all queried objects' data entirely.
            # (Later objects' lost regions are retried by the per-condition
            # loop below, so only the first object's losses matter here.)
            lost = np.zeros(0, dtype=np.int64)
            first_step: Optional[StepActual] = None
            for name, iv in ordered:
                o = sysm.get_object(name)
                all_regions = self._regions_in_constraint(o, constraint)
                before = self._counter_snapshot(stats)
                t0 = self._frontier()
                lost_o = self._charge_data_reads(o, all_regions, stats)
                step = self._make_step(
                    stats, ci, name, iv, -1, before, t0, "full-read+scan"
                )
                if name == first_name:
                    lost = lost_o
                    first_step = step
                else:
                    preloaded_steps[name] = step
            obj = sysm.get_object(first_name)
            t0 = self._frontier()
            self._charge_scan(obj, self._regions_in_constraint(obj, constraint), constraint)
            coords = self._mask_coords(obj, first_iv, constraint)
            assert first_step is not None
            first_step.elapsed_s += self._frontier() - t0
        else:
            before = self._counter_snapshot(stats)
            t0 = self._frontier()
            obj = sysm.get_object(first_name)
            surviving = self._prune_regions(obj, first_iv, constraint, stats)
            if strat is Strategy.HIST_INDEX and obj.indexes is not None:
                lost = self._charge_index_reads(obj, surviving, first_iv, stats)
                path = "index-probe"
            else:
                lost = self._charge_data_reads(obj, surviving, stats)
                self._charge_scan(obj, surviving, constraint)
                path = "pruned-read+scan"
            coords = self._mask_coords(obj, first_iv, constraint)
            first_step = self._make_step(
                stats, ci, first_name, first_iv, -1, before, t0, path
            )
        if lost.size:
            # Degraded mode: hits in unreadable regions are dropped (the
            # answer stays a subset of the truth).
            coords = coords[~np.isin(obj.region_of_coords(coords), lost)]
        first_step.hits = int(coords.size)
        stats.step_actuals.append(first_step)

        # Subsequent conditions: check only already-selected locations.
        for name, iv in ordered[1:]:
            if coords.size == 0:
                # §III-C special case: an empty intermediate result ends the
                # conjunct immediately.
                return coords
            self._check_deadline()
            before = self._counter_snapshot(stats)
            t0 = self._frontier()
            obj = sysm.get_object(name)
            cand_regions = np.unique(obj.region_of_coords(coords))
            empty_after_prune = False
            if strat.uses_histogram and self.enable_pruning:
                keep = iv.overlaps_range_arrays(
                    obj.rmin[cand_regions], obj.rmax[cand_regions]
                )
                pruned = cand_regions[~keep]
                stats.regions_pruned += int(pruned.size)
                cand_regions = cand_regions[keep]
                if pruned.size:
                    # Coordinates in pruned regions cannot match (min/max is
                    # exact); drop them without reading anything.
                    coord_regions = obj.region_of_coords(coords)
                    coords = coords[np.isin(coord_regions, cand_regions)]
                    empty_after_prune = coords.size == 0
            if not empty_after_prune:
                if strat is Strategy.HIST_INDEX and obj.indexes is not None:
                    lost = self._charge_index_reads(obj, cand_regions, iv, stats)
                    path = "index-probe"
                else:
                    lost = self._charge_data_reads(obj, cand_regions, stats)
                    self._charge_candidate_scan(obj, coords)
                    path = "recheck"
                if lost.size:
                    coords = coords[~np.isin(obj.region_of_coords(coords), lost)]
                coords = self._filter_coords(obj, iv, coords)
            else:
                path = "recheck"
            step = self._make_step(
                stats, ci, name, iv, int(coords.size), before, t0, path
            )
            pre = preloaded_steps.pop(name, None)
            if pre is not None:
                # Fold this object's FULL_SCAN pre-load into its own step so
                # the read cost lands where the plan attributes it.
                step.regions_read += pre.regions_read
                step.regions_cached += pre.regions_cached
                step.bytes_read_virtual += pre.bytes_read_virtual
                step.elapsed_s += pre.elapsed_s
                step.access_path = pre.access_path
            stats.step_actuals.append(step)
            if coords.size == 0 and empty_after_prune:
                return coords
        return coords

    def _eval_sorted(
        self,
        group: ReplicaGroup,
        ordered: Sequence[Tuple[str, Interval]],
        constraint: Tuple[int, int],
        stats: QueryResult,
        ci: int = 0,
    ) -> np.ndarray:
        """PDC-SH fast path: binary search the sorted key, then contiguous
        companion reads over the matching run (§III-D3)."""
        sysm = self.system
        replica = group.replica
        (first_name, first_iv), rest = ordered[0], ordered[1:]
        key_before = self._counter_snapshot(stats)
        key_t0 = self._frontier()

        start, stop = replica.search_range(
            first_iv.lo, first_iv.hi, first_iv.lo_closed, first_iv.hi_closed
        )
        run_len = stop - start

        # Locating the run: the replica's per-region key min/max live in the
        # cached metadata, so the boundary regions are found with zero I/O;
        # only those (≤2) key regions are read for the in-memory binary
        # search — and they stay cached for the query sequence.
        lost_parts: List[np.ndarray] = []
        if run_len > 0:
            boundary = {start // group.region_elements,
                        max(start, stop - 1) // group.region_elements}
            boundary_ids = np.array(
                sorted(min(b, group.n_regions - 1) for b in boundary), dtype=np.int64
            )
            key_itemsize = sysm.get_object(first_name).itemsize
            lost_parts.append(self._charge_replica_regions(
                group, boundary_ids, "key", key_itemsize, stats
            ))
        sysm.servers[0].clock.charge(
            sysm.cost.binary_search_time(replica.n_elements), "scan"
        )

        if run_len <= 0:
            stats.step_actuals.append(self._make_step(
                stats, ci, first_name, first_iv, 0, key_before, key_t0,
                "binary-search-run",
            ))
            return np.zeros(0, dtype=np.int64)

        run_regions = group.regions_of_run(start, stop)
        stats.regions_pruned += group.n_regions - int(run_regions.size)

        # Read the permutation (coordinates) over the run — contiguous.
        lost_parts.append(
            self._charge_replica_regions(group, run_regions, "perm", 8, stats)
        )
        stats.step_actuals.append(self._make_step(
            stats, ci, first_name, first_iv, run_len, key_before, key_t0,
            "binary-search-run",
        ))

        # Each further condition reads its companion slice — contiguous —
        # and filters the run; the exact answer comes from the replica
        # arrays.
        mask = np.ones(run_len, dtype=bool)
        for name, iv in rest:
            before = self._counter_snapshot(stats)
            t0 = self._frontier()
            itemsize = sysm.get_object(name).itemsize
            lost_parts.append(self._charge_replica_regions(
                group, run_regions, name, itemsize, stats
            ))
            per_server_elems = self._replica_elems_per_server(group, run_regions)
            for server, n in zip(sysm.alive_servers, per_server_elems):
                if n:
                    server.clock.charge(sysm.cost.scan_time(int(n)), "scan")
            mask &= iv.mask(replica.companion_slice(name, start, stop))
            stats.step_actuals.append(self._make_step(
                stats, ci, name, iv, int(mask.sum()), before, t0,
                "replica-slice",
            ))
        lost_parts = [part for part in lost_parts if part.size]
        if lost_parts:
            # Degraded mode: sorted positions whose key/perm/companion
            # replica regions were unreadable are dropped from the run.
            lost = np.unique(np.concatenate(lost_parts))
            pos_regions = np.minimum(
                np.arange(start, stop, dtype=np.int64) // group.region_elements,
                group.n_regions - 1,
            )
            mask &= ~np.isin(pos_regions, lost)
        coords = replica.original_coords(start, stop)[mask]
        cstart, cstop = constraint
        if cstart > 0 or cstop < replica.n_elements:
            coords = coords[(coords >= cstart) & (coords < cstop)]
        coords.sort()
        return coords

    # ---------------------------------------------------------- observability
    def _record_query_metrics(self, stats: QueryResult) -> None:
        """Fold one query's outcome into the system's metrics registry."""
        m = self.system.metrics
        m.counter(
            "pdc_queries_total", "Queries executed, by strategy.",
            labels=("strategy",),
        ).labels(strategy=stats.strategy.name).inc()
        m.histogram(
            "pdc_query_sim_seconds",
            "End-to-end simulated query latency (seconds).",
        ).observe(stats.elapsed_s)
        m.counter(
            "pdc_query_regions_read_total",
            "Data regions read from storage during query evaluation.",
        ).inc(stats.regions_read)
        m.counter(
            "pdc_query_regions_pruned_total",
            "Regions eliminated by histogram min/max pruning.",
        ).inc(stats.regions_pruned)
        m.counter(
            "pdc_query_regions_cached_total",
            "Regions served from server caches during query evaluation.",
        ).inc(stats.regions_cached)
        m.counter(
            "pdc_query_index_reads_total",
            "Region index probes issued (PDC-HI).",
        ).inc(stats.index_reads)
        m.counter(
            "pdc_query_bytes_read_virtual_total",
            "Virtual bytes read from storage by queries.",
        ).inc(stats.bytes_read_virtual)
        if stats.retries:
            m.counter(
                "pdc_query_retries_total",
                "Storage-read retries performed during query evaluation.",
            ).inc(stats.retries)
        if not stats.complete:
            m.counter(
                "pdc_query_degraded_total",
                "Queries that returned a degraded (partial) result.",
            ).inc()
        if stats.timed_out:
            m.counter(
                "pdc_query_timeouts_total",
                "Queries cut off by their simulated-time budget.",
            ).inc()

    # ---------------------------------------------------------- cost helpers
    def _ensure_metadata(self, names: Sequence[str]) -> None:
        """First query on an object distributes its region metadata +
        global histogram to every server (§III-C); afterwards it is cached."""
        sysm = self.system
        for name in names:
            obj = sysm.get_object(name)
            hist = obj.meta.global_histogram
            hist_bytes = hist.merged.nbytes if hist is not None else 0
            for server in sysm.alive_servers:
                if name in server.meta_cached:
                    continue
                n_assigned = (obj.n_regions + sysm.n_servers - 1) // sysm.n_servers
                server.clock.charge(
                    sysm.cost.net_time(
                        _REGION_META_BYTES * n_assigned + hist_bytes + 16 * obj.n_regions,
                        scaled=False,
                    ),
                    "meta",
                )
                server.meta_cached.add(name)

    def _regions_in_constraint(
        self, obj: StoredObject, constraint: Tuple[int, int]
    ) -> np.ndarray:
        cstart, cstop = constraint
        first = cstart // obj.region_elements
        last = min((cstop - 1) // obj.region_elements, obj.n_regions - 1)
        return np.arange(first, last + 1, dtype=np.int64)

    def _prune_regions(
        self,
        obj: StoredObject,
        interval: Interval,
        constraint: Tuple[int, int],
        stats: QueryResult,
    ) -> np.ndarray:
        """Histogram region elimination (§III-D2): regions whose min/max
        cannot overlap the condition are never read."""
        candidates = self._regions_in_constraint(obj, constraint)
        if not self.enable_pruning:
            return candidates
        keep = interval.overlaps_range_arrays(obj.rmin[candidates], obj.rmax[candidates])
        stats.regions_pruned += int((~keep).sum())
        return candidates[keep]

    def _regions_by_server(self, region_ids: np.ndarray):
        """(server, its region ids) pairs over the *alive* servers —
        failed servers (§ fault tolerance) receive no work."""
        alive = self.system.alive_servers
        n = len(alive)
        idx = self.system.region_owner_positions(region_ids)
        return [(alive[i], region_ids[idx == i]) for i in range(n)]

    def _assignment_with_faults(self, region_ids: np.ndarray, stats: QueryResult):
        """Like :meth:`_regions_by_server`, but servers may crash at the
        dispatch point (fault injection): a crashed server is failed out of
        the system and its region share is re-assigned across the survivors
        with the configured failover placement policy."""
        sysm = self.system
        plan = sysm.fault_plan
        pairs = self._regions_by_server(region_ids)
        if plan is None or plan.config.server_crash_rate <= 0.0:
            return pairs
        out = []
        for server, mine in pairs:
            if (
                mine.size
                and server.server_id not in sysm._failed_servers
                and len(sysm.alive_servers) > 1
                and plan.server_crashes(server.server_id)
            ):
                sysm.fail_server(server.server_id)
                stats.failovers += 1
                stats.server_errors.setdefault(server.server_id, []).append(
                    "server crashed; region share re-assigned"
                )
                sysm.tracer.instant(
                    f"crash:server{server.server_id}", sysm.client_clock,
                    category="fault", regions=int(mine.size),
                )
                sysm.metrics.counter(
                    "pdc_fault_failovers_total",
                    "Mid-query server crashes recovered by failover.",
                ).inc()
                survivors = sysm.alive_servers
                shares = assign_region_ids(
                    mine, len(survivors), policy=sysm.config.failover_policy,
                    weights=[s.clock.now for s in survivors],
                )
                for survivor, share in zip(survivors, shares):
                    if share.size:
                        out.append((survivor, share))
            else:
                out.append((server, mine))
        return out

    def _record_lost(
        self, stats: QueryResult, server, key: str, exc: Exception,
        lost: List[int], rid: int,
    ) -> None:
        """Bookkeeping for a region that stayed unreadable after retries:
        the query degrades to a partial result (hits in the region are
        dropped), never crashes."""
        stats.complete = False
        stats.lost_regions.append(key)
        stats.server_errors.setdefault(server.server_id, []).append(str(exc))
        lost.append(rid)
        self.system.tracer.instant(
            f"lost:{key}", server.clock, category="fault",
        )
        self.system.metrics.counter(
            "pdc_query_regions_lost_total",
            "Regions dropped from query answers after exhausting retries.",
        ).inc()

    def _active_readers(self, region_ids: np.ndarray) -> int:
        """Servers actually reading in this phase — what contends on the
        PFS.  (A selective query touching 5 regions does not suffer
        512-server contention.)"""
        if region_ids.size == 0:
            return 1
        return int(np.unique(self.system.region_owner_positions(region_ids)).size)

    def _charge_data_reads(
        self, obj: StoredObject, region_ids: np.ndarray, stats: QueryResult
    ) -> np.ndarray:
        """Charge each server for making its share of regions resident.

        Returns the region ids that stayed unreadable after fault-recovery
        retries (always empty without an installed fault plan); callers
        drop those regions' hits from the answer (degraded mode).
        """
        sysm = self.system
        readers = self._active_readers(region_ids)
        lost: List[int] = []
        for server, mine in self._assignment_with_faults(region_ids, stats):
            if mine.size == 0:
                continue
            with sysm.tracer.span(
                f"eval:server{server.server_id}", server.clock,
                category="server_eval", object=obj.name, regions=int(mine.size),
            ):
                for rid in mine:
                    key = region_key(obj.name, int(rid))
                    nbytes = int(obj.counts[rid]) * obj.itemsize
                    try:
                        hit = server.ensure_region(
                            key, nbytes, 1, sysm.config.pdc_stripe_count, readers,
                            tier=obj.tier_of(int(rid)),
                        )
                    except RegionUnavailableError as exc:
                        self._record_lost(stats, server, key, exc, lost, int(rid))
                        continue
                    if hit:
                        stats.regions_cached += 1
                    else:
                        stats.regions_read += 1
                        stats.bytes_read_virtual += nbytes * sysm.cost.virtual_scale
        return np.asarray(lost, dtype=np.int64)

    def _charge_scan(
        self, obj: StoredObject, region_ids: np.ndarray, constraint: Tuple[int, int]
    ) -> None:
        """Charge the per-server full scan of the given regions (clipped to
        the spatial constraint)."""
        sysm = self.system
        cstart, cstop = constraint
        starts = np.maximum(obj.offsets[region_ids], cstart)
        stops = np.minimum(obj.offsets[region_ids] + obj.counts[region_ids], cstop)
        elems = np.maximum(stops - starts, 0)
        alive = sysm.alive_servers
        servers_of = sysm.region_owner_positions(region_ids)
        per_server = np.bincount(servers_of, weights=elems, minlength=len(alive))
        for server, n in zip(alive, per_server):
            if n:
                server.clock.charge(sysm.cost.scan_time(int(n)), "scan")

    def _charge_candidate_scan(self, obj: StoredObject, coords: np.ndarray) -> None:
        """Charge checking only already-selected locations (§III-C AND
        optimization)."""
        sysm = self.system
        alive = sysm.alive_servers
        servers_of = sysm.region_owner_positions(obj.region_of_coords(coords))
        per_server = np.bincount(servers_of, minlength=len(alive))
        for server, n in zip(alive, per_server):
            if n:
                server.clock.charge(sysm.cost.scan_time(int(n)), "scan")

    def _charge_index_reads(
        self,
        obj: StoredObject,
        region_ids: np.ndarray,
        interval: Interval,
        stats: QueryResult,
    ) -> np.ndarray:
        """PDC-HI: probe region indexes instead of reading data (§III-D4).

        FastBit seeks into the index file and reads only the bitmaps of
        bins overlapping the condition (cached afterwards); candidate bins
        (off-grid endpoints) additionally force a raw region read to verify
        boundary values.  Returns region ids lost to exhausted retries
        (degraded mode), as :meth:`_charge_data_reads` does.
        """
        sysm = self.system
        assert obj.indexes is not None and obj.index_nbytes is not None
        readers = self._active_readers(region_ids)
        lost: List[int] = []
        for server, mine in self._assignment_with_faults(region_ids, stats):
            if mine.size == 0:
                continue
            with sysm.tracer.span(
                f"eval:server{server.server_id}", server.clock,
                category="server_eval", object=obj.name, regions=int(mine.size),
                index=True,
            ):
                for rid in mine:
                    try:
                        self._probe_region_index(obj, int(rid), interval, server,
                                                 readers, stats)
                    except RegionUnavailableError as exc:
                        key = region_key(obj.name, int(rid))
                        self._record_lost(stats, server, key, exc, lost, int(rid))
        return np.asarray(lost, dtype=np.int64)

    def _probe_region_index(
        self, obj: StoredObject, rid: int, interval: Interval, server,
        readers: int, stats: QueryResult,
    ) -> None:
        """One PDC-HI index probe: seek + bitmap read (cold), WAH scan, and
        an optional raw-region candidate check."""
        sysm = self.system
        probe = obj.indexes[rid].query_cost(interval)
        stats.index_reads += 1
        key = region_key(obj.name, rid, replica="idx")
        if not server.cache.lookup(key):
            # Cold probe: one seek reading the bin directory plus
            # the touched bitmaps (FastBit seeks once into the
            # index file); the index stays cached afterwards, so
            # later probes of this region are in-memory.
            if sysm.tracer.enabled:
                with sysm.tracer.span(
                    f"read:{key}", server.clock, category="index_read",
                    bytes=probe.bytes_touched,
                ):
                    server.faultable_read(
                        key, self._index_probe_time(probe, readers),
                        category="index_read",
                    )
            else:
                server.faultable_read(
                    key, self._index_probe_time(probe, readers),
                    category="index_read",
                )
            server.cache.put(key, nbytes=int(obj.index_nbytes[rid]))
            stats.bytes_read_virtual += (
                probe.bytes_touched * sysm.cost.virtual_scale
            )
        else:
            stats.regions_cached += 1
        server.clock.charge(
            sysm.cost.wah_scan_time(probe.words_touched), "scan"
        )
        # Uncompacted WAH delta segments (continuous ingest): the base
        # bitmap predates the deltas, so every delta position must be
        # treated as a candidate until background compaction folds the
        # segments in.
        candidates = probe.candidates
        if obj.index_delta_counts is not None:
            n_delta = int(obj.index_delta_counts[rid])
            if n_delta:
                server.clock.charge(sysm.cost.scan_time(n_delta), "scan")
                candidates += n_delta
        # Candidate check: boundary-bin members verified against raw
        # values (whole-region read, block-index style).
        if candidates:
            nbytes = int(obj.counts[rid]) * obj.itemsize
            was_hit = server.ensure_region(
                region_key(obj.name, rid), nbytes, 1,
                sysm.config.pdc_stripe_count, readers,
            )
            server.clock.charge(sysm.cost.scan_time(candidates), "scan")
            if was_hit:
                stats.regions_cached += 1
            else:
                stats.regions_read += 1
                stats.bytes_read_virtual += nbytes * sysm.cost.virtual_scale

    def _index_probe_time(self, probe, readers: int) -> float:
        """Simulated seconds of one cold index probe."""
        sysm = self.system
        return sysm.cost.pfs_read_time(
            probe.bytes_touched, 1, sysm.config.pdc_stripe_count, readers
        ) + sysm.cost.pfs_read_time(probe.header_bytes, 0, 1, 1, scaled=False)

    def _charge_replica_regions(
        self,
        group: ReplicaGroup,
        region_ids: np.ndarray,
        which: str,
        itemsize: int,
        stats: QueryResult,
    ) -> np.ndarray:
        """Charge contiguous reads of replica regions (perm or companion).

        Returns replica region ids lost to exhausted retries (degraded
        mode), as :meth:`_charge_data_reads` does."""
        sysm = self.system
        readers = self._active_readers(region_ids)
        key_name = group.replica.key_name
        lost: List[int] = []
        for server, mine in self._assignment_with_faults(region_ids, stats):
            if mine.size == 0:
                continue
            with sysm.tracer.span(
                f"eval:server{server.server_id}", server.clock,
                category="server_eval", object=key_name, replica=which,
                regions=int(mine.size),
            ):
                for rid in mine:
                    key = region_key(key_name, int(rid), replica=f"sorted:{which}")
                    nbytes = int(group.counts[rid]) * itemsize
                    try:
                        hit = server.ensure_region(
                            key, nbytes, 1, sysm.config.pdc_stripe_count, readers
                        )
                    except RegionUnavailableError as exc:
                        self._record_lost(stats, server, key, exc, lost, int(rid))
                        continue
                    if hit:
                        stats.regions_cached += 1
                    else:
                        stats.regions_read += 1
        return np.asarray(lost, dtype=np.int64)

    def _replica_elems_per_server(
        self, group: ReplicaGroup, region_ids: np.ndarray
    ) -> np.ndarray:
        n_alive = len(self.system.alive_servers)
        servers_of = self.system.region_owner_positions(region_ids)
        return np.bincount(
            servers_of, weights=group.counts[region_ids], minlength=n_alive
        )

    def _bytes_per_server(
        self, obj: StoredObject, coords: np.ndarray, itemsize: int
    ) -> np.ndarray:
        """Result bytes each *alive* server ships, by hit ownership."""
        n_alive = len(self.system.alive_servers)
        if coords.size == 0:
            return np.zeros(n_alive)
        servers_of = self.system.region_owner_positions(obj.region_of_coords(coords))
        return np.bincount(servers_of, minlength=n_alive) * itemsize

    def _charge_result_transfer(
        self, obj: StoredObject, coords: np.ndarray, want_selection: bool
    ) -> None:
        """Servers send results; the client's background thread aggregates
        (§III-C).

        The "client" is a parallel application (§V: 31 cores per node next
        to each server), so coordinate payloads stream server→application
        in parallel; only the small per-server hit counts funnel through
        the issuing rank.
        """
        sysm = self.system
        if want_selection and coords.size:
            per_server = self._bytes_per_server(obj, coords, 8)
        else:
            per_server = np.full(len(sysm.alive_servers), 8.0)
        for server, nbytes in zip(sysm.alive_servers, per_server):
            if nbytes:
                server.clock.charge(
                    sysm.cost.net_time(int(nbytes), scaled=nbytes > 8), "net"
                )
        sysm.client_clock.advance_to(
            max(s.clock.now for s in sysm.alive_servers), category="comm"
        )
        sysm.client_clock.charge(sysm.cost.net_time(16 * sysm.n_servers, scaled=False), "net")

    def _mask_coords(
        self, obj: StoredObject, interval: Interval, constraint: Tuple[int, int]
    ) -> np.ndarray:
        """Exact hit coordinates of one condition within the constraint."""
        cstart, cstop = constraint
        window = obj.data[cstart:cstop]
        return np.flatnonzero(interval.mask(window)).astype(np.int64) + cstart

    def _filter_coords(
        self, obj: StoredObject, interval: Interval, coords: np.ndarray
    ) -> np.ndarray:
        """Candidate re-check: keep the coords whose value matches."""
        return coords[interval.mask(obj.data[coords])]

    def _count_hits(self, obj: StoredObject, interval: Interval) -> int:
        """Whole-object hit count (metadata+data queries)."""
        return int(interval.mask(obj.data).sum())

    # -------------------------------------------------------------- get_data
    def _charge_get_data_original(
        self, obj: StoredObject, selection: Selection, result: GetDataResult
    ) -> None:
        sysm = self.system
        if selection.is_empty:
            return
        regions = np.unique(obj.region_of_coords(selection.coords))
        readers = self._active_readers(regions)
        whole_regions = sysm.config.get_data_whole_regions
        for server, mine in self._regions_by_server(regions):
            for rid in mine:
                key = region_key(obj.name, int(rid))
                nbytes = int(obj.counts[rid]) * obj.itemsize
                if whole_regions or server.cache.contains(key):
                    hit = server.ensure_region(
                        key, nbytes, 1, sysm.config.pdc_stripe_count, readers,
                        hit_copy=True,
                    )
                    if hit:
                        result.regions_cached += 1
                    else:
                        result.regions_read += 1
                        result.bytes_read_virtual += (
                            nbytes * sysm.cost.virtual_scale
                        )
                else:
                    # Ablation mode: read only the hit extents, merged by
                    # the §III-E aggregator (many small accesses when the
                    # hits are scattered — the effect whole-region reads
                    # avoid).
                    off = int(obj.offsets[rid])
                    in_region = selection.clip(off, off + int(obj.counts[rid])).coords
                    extents = coords_to_extents(
                        in_region, gap_threshold=sysm.config.aggregation_gap_elements
                    )
                    nb = sum(b - a for a, b in extents) * obj.itemsize
                    server.clock.charge(
                        sysm.cost.pfs_read_time(
                            nb, len(extents), sysm.config.pdc_stripe_count, readers
                        ),
                        "pfs_read",
                    )
                    result.regions_read += 1
                    result.bytes_read_virtual += nb * sysm.cost.virtual_scale

    def _charge_get_data_replica(
        self, group: ReplicaGroup, object_name: str, selection: Selection,
        result: GetDataResult,
    ) -> None:
        """PDC-SH get_data: hits live contiguously on the sorted replica,
        already cached by the evaluation pass."""
        sysm = self.system
        if selection.is_empty:
            return
        inv = self._inverse_permutation(group)
        positions = np.sort(inv[selection.coords])
        regions = np.unique(positions // group.region_elements)
        regions = np.minimum(regions, group.n_regions - 1)
        itemsize = sysm.get_object(object_name).itemsize
        readers = self._active_readers(regions)
        which = object_name if object_name != group.replica.key_name else "key"
        for server, mine in self._regions_by_server(regions):
            for rid in mine:
                key = region_key(
                    group.replica.key_name, int(rid), replica=f"sorted:{which}"
                )
                nbytes = int(group.counts[rid]) * itemsize
                hit = server.ensure_region(
                    key, nbytes, 1, sysm.config.pdc_stripe_count, readers,
                    hit_copy=True,
                )
                if hit:
                    result.regions_cached += 1
                else:
                    result.regions_read += 1
                    result.bytes_read_virtual += nbytes * sysm.cost.virtual_scale

    def _inverse_permutation(self, group: ReplicaGroup) -> np.ndarray:
        inv = getattr(group, "_inverse_perm", None)
        if inv is None:
            inv = np.empty_like(group.replica.permutation)
            inv[group.replica.permutation] = np.arange(
                group.replica.n_elements, dtype=np.int64
            )
            group._inverse_perm = inv  # type: ignore[attr-defined]
        return inv
