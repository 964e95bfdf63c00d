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

import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import compress, repeat
from typing import Callable, ClassVar, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import (
    PDCError,
    QueryError,
    QueryShapeError,
    QueryTimeoutError,
)
from ..interval import Interval
from ..obs.metrics import Handles
from ..obs.tracer import Span
from ..pdc.placement import assign_region_ids
from ..pdc.region import region_key
from ..pdc.system import PDCSystem, ReplicaGroup, StoredObject
from ..storage.aggregator import coords_to_extents
from ..storage.file import PDC_STRIPE_COUNT
from ..strategies import Strategy
from ..types import check_timeout
from . import planner
from .ast import QueryNode, objects_of
from .kernels import filter_coords, index_coords, interval_coords, mask_coords, replica_coords
from .planner import PRUNED, ConjunctPlan, PlanBook, PlanStep
from .region_constraint import RegionConstraint, normalize_constraint
from .selection import Selection, sorted_unique

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
#: Gap threshold (elements) for read aggregation in get_data (§III-E).
_AGGREGATION_GAP_ELEMENTS = 256
#: The registry metrics the engine feeds per query and per batch: name ->
#: (kind, help, label names).  Each is declared on its first use.
_ENGINE_METRICS = {
    "pdc_queries_total": ("counter", "Queries executed, by strategy.", ("strategy",)),
    "pdc_query_sim_seconds": (
        "histogram", "End-to-end simulated query latency (seconds).", ()),
    "pdc_query_regions_read_total": (
        "counter", "Data regions read from storage during query evaluation.", ()),
    "pdc_query_regions_pruned_total": (
        "counter", "Regions eliminated by histogram min/max pruning.", ()),
    "pdc_query_regions_cached_total": (
        "counter", "Regions served from server caches during query evaluation.", ()),
    "pdc_query_index_reads_total": ("counter", "Region index probes issued (PDC-HI).", ()),
    "pdc_query_bytes_read_virtual_total": (
        "counter", "Virtual bytes read from storage by queries.", ()),
    "pdc_query_retries_total": (
        "counter", "Storage-read retries performed during query evaluation.", ()),
    "pdc_query_degraded_total": (
        "counter", "Queries that returned a degraded (partial) result.", ()),
    "pdc_query_timeouts_total": (
        "counter", "Queries cut off by their simulated-time budget.", ()),
    "pdc_batches_total": ("counter", "Query batch windows executed.", ()),
    "pdc_batch_width": ("histogram", "Queries admitted per batch window.", ()),
    "pdc_semantic_cache_lookups_total": (
        "counter", "Semantic selection-cache lookups by result.", ("result",)),
}


def _interleave(selector: List[bool], index_file: list, data: list) -> list:
    """One access column of a PDC-HI step from its per-region values: each
    region's index-file value, then its data value where ``selector`` (the
    kept slots) says the region has candidates to check."""
    column = [None] * (2 * len(index_file))
    column[0::2], column[1::2] = index_file, data
    return list(compress(column, selector))


def _flags(n_regions: int, region_ids: np.ndarray) -> np.ndarray:
    """A boolean lookup table over ``n_regions`` regions, set at
    ``region_ids`` — region-id membership without a hash set."""
    flags = np.zeros(n_regions, dtype=bool)
    flags[region_ids] = True
    return flags


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


@dataclass
class QuerySpec:
    """One query of a batch: a condition tree plus its per-query options
    (what :meth:`QueryEngine.execute` takes as keyword arguments)."""

    node: QueryNode
    want_selection: bool = True
    region_constraint: Optional[RegionConstraint] = None
    strategy: Optional[Strategy] = None
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        check_timeout(self.timeout_s)


@dataclass
class BatchResult:
    """Outcome of one batch window.

    ``results[i]`` is query *i*'s individually-timed :class:`QueryResult`
    (or ``None`` when it raised — see ``errors``).  Overlapping reads are
    shared through the server region caches, so there is no batch-level
    read to account: ``shared_reads`` and ``saved_bytes_virtual`` are
    always zero.  The batch belongs to the caller; a
    :class:`~repro.query.scheduler.QueryScheduler` keeps only a
    :class:`~repro.query.scheduler.WindowRecord` of its counters.
    """

    results: List[Optional[QueryResult]]
    #: Queries admitted to this batch.
    width: int = 0
    #: Simulated seconds from batch admission to the last query's result.
    elapsed_s: float = 0.0
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
    shared_reads: ClassVar[int] = 0
    saved_bytes_virtual: ClassVar[float] = 0.0

    @property
    def total_bytes_read_virtual(self) -> float:
        """Virtual PFS bytes the whole batch read: every query's own
        reads."""
        return sum(r.bytes_read_virtual for r in self.results if r is not None)


@dataclass
class GetDataResult:
    """Outcome of materializing a selection's values.

    ``elapsed_s`` is the barrier-to-barrier simulated time of the
    materialization alone; regions made resident earlier (by evaluation
    or :meth:`QueryEngine.preload`) show up as
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
        #: ``_ENGINE_METRICS`` name -> the metric, or a labelled family's
        #: :meth:`~repro.obs.metrics._Metric.handles`, declared on first use.
        self._metric = Handles(self._declare_metric)

    def _declare_metric(self, name: str):
        kind, help, labels = _ENGINE_METRICS[name]
        metric = getattr(self.system.metrics, kind)(name, help, labels)
        return metric.handles() if labels else metric

    def _check_deadline(self) -> None:
        """Raise :class:`QueryTimeoutError` once simulated time passes the
        in-flight query's deadline (installed by :meth:`execute`)."""
        deadline = self._deadline
        if deadline is None:
            return
        now = self._frontier()
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
        *,
        book: Optional[PlanBook] = None,
    ) -> QueryResult:
        """Evaluate a condition tree; returns hit count (and selection).

        ``region_constraint`` is the optional spatial constraint of
        ``PDCquery_set_region``: a half-open flat coordinate range, or an
        N-D :class:`HyperSlab` over the objects' logical shape.  Either way
        it need not align with PDC's internal region partitions (§III-A).

        ``timeout_s`` bounds the query's *simulated* elapsed time
        (defaulting to the installed fault plan's ``query_timeout_s``);
        when exceeded, evaluation stops and a partial result is returned
        with ``timed_out=True`` and ``complete=False``.  It must be a
        finite number above zero, or None.

        ``book`` is the :class:`~repro.query.planner.PlanBook` of the call
        this query belongs to (:meth:`execute_batch` passes its window's);
        omitted, the query opens its own.
        """
        check_timeout(timeout_s)
        sysm = self.system
        tracer = sysm.tracer
        book = PlanBook(sysm) if book is None else book
        with tracer.span("query", sysm.client_clock, category="query") as qspan:
            with tracer.span("plan", sysm.client_clock, category="plan") as pspan:
                strat, names, objs, constraint, slab = self._resolve(
                    root, region_constraint, strategy, book
                )
                pspan.set(strategy=strat.name)
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

                # 3. DNF evaluation with OR-union at the client; each
                # conjunct is planned once, then charged and answered.
                coords_acc: Optional[np.ndarray] = None
                full_count = (
                    slab.n_elements if slab is not None
                    else constraint[1] - constraint[0]
                )
                try:
                    self._check_deadline()
                    for ci, cplan in book.plans(
                        root, strat, constraint, self.enable_ordering, self.enable_pruning
                    ):
                        with tracer.span(
                            f"conjunct[{ci}]", sysm.client_clock, category="conjunct",
                            objects=sorted(s.name for s in cplan.steps),
                        ):
                            coords = self._eval_conjunct(cplan, constraint, stats, ci)
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
                            coords_acc = sorted_unique(
                                np.concatenate((coords_acc, coords))
                            )
                        # §III-C special case: a disjunct selecting everything ends the
                        # union early.
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
            stats.selection = (
                Selection(coords_acc, objs[0].n_elements) if want_selection else None
            )
            stats.elapsed_s = t_end - t_start
            qspan.set(
                nhits=stats.nhits, elapsed_s=stats.elapsed_s,
                complete=stats.complete,
            )
        stats.trace = qspan.span
        self._record_query_metrics(stats)
        return stats

    def _resolve(
        self,
        root: QueryNode,
        region_constraint: Optional[RegionConstraint],
        strategy: Optional[Strategy],
        book: PlanBook,
    ) -> tuple:
        """What a query fixes before any server works — ``(strategy, object
        names, objects, flat constraint bounds, exact N-D filter)``.  The
        objects must share one shape.  AUTO is resolved by the cost-based
        planner (§IX future work) over the plans ``book`` holds for this
        query's constraint and the engine's knobs — the plans execution
        will run: planning uses only server-cached metadata, charged as
        client-side overhead."""
        sysm = self.system
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
        constraint, slab = normalize_constraint(region_constraint, domain)
        strat = strategy or sysm.strategy
        if strat is Strategy.AUTO:
            strat, _ = planner.choose_strategy(
                sysm, root, True,
                constraint, self.enable_ordering, self.enable_pruning, book=book,
            )
            sysm.client_clock.charge(sysm.cost.params.client_overhead_s, "plan")
        return strat, names, objs, constraint, slab

    # --------------------------------------------------------- batch execution
    def execute_batch(
        self,
        queries: Sequence[object],
        selection_cache=None,
    ) -> BatchResult:
        """Evaluate a window of queries, each as :meth:`execute` would,
        reporting its own simulated latency, trace, and metrics.

        ``queries`` items are :class:`QuerySpec` instances or bare
        condition trees.  ``selection_cache`` is an optional
        :class:`~repro.query.scheduler.SelectionCache`: single-object
        interval queries are served from it — exactly, or by narrowing a
        cached superset interval's selection — with zero storage I/O.

        The window shares one :class:`~repro.query.planner.PlanBook`: each
        query is typed once, and the semantic-cache key and execution read
        the same typed conjuncts and plans.  Queries whose reads overlap
        share them through the server region caches: a region the window
        already read is a cache hit for every later query.
        """
        sysm = self.system
        specs = [
            q if isinstance(q, QuerySpec) else QuerySpec(node=q) for q in queries
        ]
        batch = BatchResult(results=[None] * len(specs), width=len(specs))
        book = PlanBook(sysm)
        t_start = sysm.sync_clocks()
        for i, spec in enumerate(specs):
            ck = self._semantic_key(spec, book) if selection_cache is not None else None
            if ck is not None:
                served = selection_cache.fetch(sysm, ck[0], ck[1])
                if served is not None:
                    sel, kind, scanned = served
                    batch.results[i] = self._cache_served_result(
                        spec, sel, kind, scanned
                    )
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
                    book=book,
                )
            except Exception as exc:  # per-query isolation inside a batch
                batch.errors[i] = exc
                continue
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

    def _semantic_key(
        self, spec: QuerySpec, book: PlanBook
    ) -> Optional[Tuple[str, Interval]]:
        """(object, interval) when the query is a single-object interval
        with no spatial constraint — the only shape the semantic selection
        cache memoizes."""
        if spec.region_constraint is not None:
            return None
        try:
            conjuncts = book.conjuncts(spec.node)
        except PDCError:  # unknown object, untypable bound: execute reports it
            return None
        if len(conjuncts) != 1 or len(conjuncts[0][1]) != 1:
            return None
        ((name, interval),) = conjuncts[0][1].items()
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
        """Fold one batch's window accounting into the registry."""
        metric = self._metric
        metric["pdc_batches_total"].inc()
        metric["pdc_batch_width"].observe(batch.width)
        lookups = metric["pdc_semantic_cache_lookups_total"]
        for result, n in (("hit", batch.semantic_hits), ("narrowed", batch.semantic_narrowed),
                          ("repaired", batch.semantic_repaired), ("miss", batch.semantic_misses)):
            if n:
                lookups[result].inc(n)

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
            strat = planner.choose_get_data_strategy(sysm, object_name, selection)
            sysm.client_clock.charge(sysm.cost.params.client_overhead_s, "plan")
        t_start = sysm.sync_clocks()
        result = GetDataResult(values=obj.data[selection.coords].copy(), elapsed_s=0.0)

        replica = sysm.replica_covering([object_name]) if strat is Strategy.SORT_HIST else None
        if not selection.is_empty:
            self._charge_get_data_reads(obj, replica, selection, result)

        # Ship hit values to the (parallel) application: per-server streams,
        # then a small completion aggregation at the issuing rank.
        self._charge_per_server(
            self._bytes_per_server(obj, selection.coords, obj.itemsize),
            sysm.cost.net_time, "net",
        )
        self._gather_at_client(16 * sysm.n_servers)

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
        readers, stripes = sysm.n_servers, PDC_STRIPE_COUNT
        alive = sysm.alive_servers
        for name in names:
            obj = sysm.get_object(name)
            server = alive[hash_name(name) % len(alive)]
            use_index = strat is Strategy.HIST_INDEX and obj.indexes is not None
            # One min/max overlap test over all regions; only the
            # survivors are touched, in ascending region order.
            typed = interval.typed(obj.meta.pdc_type)
            surviving, _, _ = planner.surviving_regions(
                obj, typed, prune=strat.uses_histogram
            )
            # Elements to check against raw values: the whole region, or
            # with an index only the boundary-bin candidates.
            candidates = obj.counts[surviving].tolist()
            if use_index:
                ix = obj.indexes
                candidates = ix.footprint(typed, surviving)[1].tolist()
            for rid, cand in zip(surviving.tolist(), candidates):
                if use_index:
                    server.ensure_region(
                        region_key(name, rid, "idx"), int(ix.nbytes[rid]), 1,
                        stripes, readers, category="index_read",
                    )
                    server.clock.charge(
                        sysm.cost.wah_scan_time(int(ix.words[rid])), "scan"
                    )
                    # Uncompacted WAH delta segments: every delta position
                    # is a candidate until compaction.
                    n_delta = int(ix.delta[rid])
                    if n_delta:
                        server.clock.charge(sysm.cost.scan_time(n_delta), "scan")
                        cand += n_delta
                if cand:
                    server.ensure_region(
                        region_key(name, rid), int(obj.counts[rid]) * obj.itemsize, 1,
                        stripes, readers
                    )
                    server.clock.charge(sysm.cost.scan_time(cand), "scan")
            hits = int(typed.mask(obj.data).sum())
            per_object[name] = hits
            total_hits += hits

        # Ship per-object counts back.
        for server in sysm.alive_servers:
            server.clock.charge(sysm.cost.net_time(16 * max(1, len(names))), "net")
        self._gather_at_client(16 * max(1, len(names)), scaled=True)

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

    @contextmanager
    def _record_step(self, stats: QueryResult, step: StepActual) -> Iterator[None]:
        """Add to ``step`` what the body did: the counter deltas of ``stats``
        and the frontier advance while it ran (a step recorded twice sums
        both bodies).  Bookkeeping only — nothing here touches a clock or a
        cache — and nothing is added if the body raises."""
        before = (
            stats.regions_read, stats.regions_cached, stats.regions_pruned,
            stats.index_reads, stats.bytes_read_virtual,
        )
        t0 = self._frontier()
        yield
        step.regions_read += stats.regions_read - before[0]
        step.regions_cached += stats.regions_cached - before[1]
        step.regions_pruned += stats.regions_pruned - before[2]
        step.index_reads += stats.index_reads - before[3]
        step.bytes_read_virtual += stats.bytes_read_virtual - before[4]
        step.elapsed_s += self._frontier() - t0

    def _eval_conjunct(
        self,
        plan: ConjunctPlan,
        constraint: Tuple[int, int],
        stats: QueryResult,
        ci: int = 0,
    ) -> np.ndarray:
        """Charge and answer one planned AND-group; returns sorted hit
        coordinates.  PDC-F/H/HI are this one pipeline parameterised by the
        plan; PDC-SH alone answers from a different structure."""
        sysm = self.system
        if plan.proved_empty:
            return np.zeros(0, dtype=np.int64)
        stats.evaluation_order = [s.name for s in plan.steps]
        #: One measured actual per planned step; recorded on ``stats`` as
        #: evaluation reaches it.
        steps = [
            (s, StepActual(ci, s.name, s.interval, hits=-1, access_path=s.path))
            for s in plan.steps
        ]
        (first, first_step), rest = steps[0], steps[1:]
        if first.path == "binary-search-run":
            return self._eval_sorted(plan.replica, steps, constraint, stats)

        # First condition: make its surviving regions (or their index
        # files) resident and scan them.
        obj = sysm.get_object(first.name)
        preloads = first.path == "full-read+scan"
        with self._record_step(stats, first_step):
            stats.regions_pruned += first.pruned
            if first.path == "index-probe":
                lost = self._charge_index_reads(
                    obj, first.regions, first.interval, stats
                )
            else:
                lost = self._charge_data_reads(obj, first.regions, stats)
                if not preloads:
                    self._charge_scan(obj, first.regions, constraint)
        if preloads:
            # §III-D1: PDC-F pre-loads all queried objects' data entirely
            # before scanning; each object's read cost lands on its own
            # step, where the plan attributes it.  (Later objects' lost
            # regions are retried by the per-condition loop below, so only
            # the first object's losses matter here.)
            for s, step in rest:
                with self._record_step(stats, step):
                    self._charge_data_reads(
                        sysm.get_object(s.name), s.regions, stats
                    )
            with self._record_step(stats, first_step):
                self._charge_scan(obj, first.regions, constraint)
        scanned, covered = first.regions, first.covered
        if lost.size:
            # Degraded mode: unreadable regions are not scanned, so their
            # hits are dropped (the answer stays a subset of the truth).
            readable = ~_flags(obj.n_regions, lost)[scanned]
            scanned, covered = scanned[readable], covered[readable]
        answer = index_coords if first.path == "index-probe" else mask_coords
        coords = answer(obj, first.interval, constraint, scanned, covered)
        first_step.hits = int(coords.size)
        stats.step_actuals.append(first_step)

        # Subsequent conditions: check only already-selected locations.
        for s, step in rest:
            if coords.size == 0:
                # §III-C special case: an empty intermediate result ends the
                # conjunct immediately.
                return coords
            self._check_deadline()
            with self._record_step(stats, step):
                obj = sysm.get_object(s.name)
                cand_regions, hits = obj.region_hits(coords)
                states = None  # every candidate region straddles
                if s.pruned or s.covered.any():
                    states = planner.region_states(
                        obj.n_regions, s.regions, s.covered
                    )[cand_regions]
                if s.pruned:
                    # Coordinates in regions the plan eliminated cannot
                    # match (min/max is exact); drop them without reading
                    # anything.
                    keep = states != PRUNED
                    stats.regions_pruned += int(keep.size - np.count_nonzero(keep))
                    if not keep.all():
                        coords = coords[np.repeat(keep, hits)]
                        cand_regions, hits = cand_regions[keep], hits[keep]
                        states = states[keep]
                if coords.size == 0:
                    step.access_path = "recheck"
                else:
                    if s.path == "index-probe":
                        lost = self._charge_index_reads(
                            obj, cand_regions, s.interval, stats
                        )
                    else:
                        lost = self._charge_data_reads(obj, cand_regions, stats)
                        # §III-C AND optimization: only the already-selected
                        # locations are checked (one element per coordinate).
                        self._charge_owner_scans(cand_regions, hits)
                    if lost.size:
                        readable = ~_flags(obj.n_regions, lost)[cand_regions]
                        coords = coords[np.repeat(readable, hits)]
                        hits = hits[readable]
                        if states is not None:
                            states = states[readable]
                    coords = filter_coords(obj, s.interval, coords, hits, states)
            step.hits = int(coords.size)
            stats.step_actuals.append(step)
        return coords

    def _eval_sorted(
        self,
        group: ReplicaGroup,
        steps: Sequence[Tuple[PlanStep, StepActual]],
        constraint: Tuple[int, int],
        stats: QueryResult,
    ) -> np.ndarray:
        """PDC-SH fast path: binary search the sorted key, then contiguous
        companion reads over the matching run (§III-D3).  Coordinates
        written since the replica's build are read from each object's own
        regions instead, as PDC-H reads them.  ``steps`` pairs each
        planned step with the actual to record it on."""
        sysm = self.system
        replica = group.replica
        objs = [sysm.get_object(s.name) for s, _ in steps]
        dirty = replica.dirty_coords(objs[0].n_elements)
        n_dirty = dirty.size
        (first, first_step), rest = steps[0], steps[1:]
        lost_parts: List[np.ndarray] = []
        run_regions = np.zeros(0, dtype=np.int64)
        with self._record_step(stats, first_step):
            iv = first.interval
            start, stop = replica.search_range(
                iv.lo, iv.hi, iv.lo_closed, iv.hi_closed
            )
            run_len = first_step.hits = max(stop - start, 0)

            # Locating the run: the replica's per-region key min/max live in
            # the cached metadata, so the boundary regions are found with
            # zero I/O; only those (≤2) key regions are read for the
            # in-memory binary search — and they stay cached for the query
            # sequence.
            if run_len:
                boundary = {start // group.region_elements,
                            max(start, stop - 1) // group.region_elements}
                boundary_ids = np.array(
                    sorted(min(b, group.n_regions - 1) for b in boundary), dtype=np.int64
                )
                lost_parts.append(self._charge_replica_regions(
                    group, boundary_ids, "key", objs[0].itemsize, stats
                ))
            sysm.alive_servers[0].clock.charge(
                sysm.cost.binary_search_time(replica.n_elements), "scan"
            )
            if run_len:
                run_regions = group.regions_of_run(start, stop)
                stats.regions_pruned += group.n_regions - int(run_regions.size)
                # Read the permutation (coordinates) over the run —
                # contiguous.
                lost_parts.append(
                    self._charge_replica_regions(group, run_regions, "perm", 8, stats)
                )
            dirty = self._read_dirty(objs[0], dirty, stats)
        stats.step_actuals.append(first_step)
        if not (run_len or n_dirty):
            return np.zeros(0, dtype=np.int64)

        # Each further condition reads its companion slice — contiguous —
        # and filters the run; the exact answer comes from the replica
        # arrays.
        mask = np.ones(run_len, dtype=bool)
        for (s, step), obj in zip(rest, objs[1:]):
            with self._record_step(stats, step):
                if run_len:
                    lost_parts.append(self._charge_replica_regions(
                        group, run_regions, s.name, obj.itemsize, stats
                    ))
                    self._charge_owner_scans(run_regions, group.counts[run_regions])
                    mask &= s.interval.mask(replica.companion_slice(s.name, start, stop))
                dirty = self._read_dirty(obj, dirty, stats)
            step.hits = int(mask.sum())
            stats.step_actuals.append(step)
        lost_parts = [part for part in lost_parts if part.size]
        if not (rest or lost_parts) and dirty.size == n_dirty:
            # Nothing lost: the cheaper of the run and region runs.
            return interval_coords(sysm, objs[0], iv, constraint, (start, stop))
        if lost_parts:
            # Degraded mode: sorted positions whose key/perm/companion
            # replica regions were unreadable are dropped from the run.
            lost = _flags(group.n_regions, np.concatenate(lost_parts))
            pos_regions = np.minimum(
                np.arange(start, stop, dtype=np.int64) // group.region_elements,
                group.n_regions - 1,
            )
            mask &= ~lost[pos_regions]
        checks = [(obj, s.interval) for obj, (s, _) in zip(objs, steps)]
        return replica_coords(replica, checks, start, stop, mask, constraint, dirty)

    def _read_dirty(
        self, obj: StoredObject, dirty: np.ndarray, stats: QueryResult
    ) -> np.ndarray:
        """Read and scan the regions of ``obj`` holding the ascending
        ``dirty`` coordinates, as PDC-H reads a region; returns the
        coordinates left once lost regions' are dropped (degraded mode)."""
        if not dirty.size:
            return dirty
        regions, hits = obj.region_hits(dirty)
        lost = self._charge_data_reads(obj, regions, stats)
        self._charge_owner_scans(regions, hits)
        if lost.size:
            dirty = dirty[np.repeat(~_flags(obj.n_regions, lost)[regions], hits)]
        return dirty

    # ---------------------------------------------------------- observability
    def _record_query_metrics(self, stats: QueryResult) -> None:
        """Fold one query's outcome into the system's metrics registry."""
        metric = self._metric
        metric["pdc_queries_total"][stats.strategy.name].inc()
        metric["pdc_query_sim_seconds"].observe(stats.elapsed_s)
        for name, n, always in (
            ("pdc_query_regions_read_total", stats.regions_read, True),
            ("pdc_query_regions_pruned_total", stats.regions_pruned, True),
            ("pdc_query_regions_cached_total", stats.regions_cached, True),
            ("pdc_query_index_reads_total", stats.index_reads, True),
            ("pdc_query_bytes_read_virtual_total", stats.bytes_read_virtual, True),
            ("pdc_query_retries_total", stats.retries, False),
            ("pdc_query_degraded_total", int(not stats.complete), False),
            ("pdc_query_timeouts_total", int(stats.timed_out), False),
        ):
            if always or n:
                metric[name].inc(n)

    # ---------------------------------------------------------- cost helpers
    def _ensure_metadata(self, names: Sequence[str]) -> None:
        """First query on an object distributes its region metadata +
        global histogram to every server (§III-C); afterwards it is cached."""
        sysm = self.system
        for name in names:
            obj = sysm.get_object(name)
            hist_bytes = obj.meta.global_histogram.merged.nbytes
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

    def _route(self, region_ids: np.ndarray):
        """``(pairs, readers)``: each alive server with its region ids,
        ascending (failed servers receive no work), from one stable sort of
        the owners, and how many servers read — what contends on the PFS
        (a selective query touching 5 regions does not suffer 512-server
        contention)."""
        alive = self.system.alive_servers
        owners = self.system.region_owner_positions(region_ids)
        ordered = region_ids[np.argsort(owners, kind="stable")]
        counts = np.bincount(owners, minlength=len(alive)).tolist()
        pairs, start = [], 0
        for server, n in zip(alive, counts):
            pairs.append((server, ordered[start : start + n]))
            start += n
        return pairs, max(1, len(counts) - counts.count(0))

    def _assignment_with_faults(self, region_ids: np.ndarray, stats: QueryResult):
        """:meth:`_route`, but servers may crash at the dispatch point
        (fault injection): a crashed server is failed out of the system and
        its region share is re-assigned round-robin across the survivors."""
        sysm = self.system
        plan = sysm.fault_plan
        pairs, readers = self._route(region_ids)
        if plan is None or plan.config.server_crash_rate <= 0.0:
            return pairs, readers
        out = []
        for server, mine in pairs:
            if (
                mine.size
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
                shares = assign_region_ids(mine, len(survivors))
                for survivor, share in zip(survivors, shares):
                    if share.size:
                        out.append((survivor, share))
            else:
                out.append((server, mine))
        return out, readers

    def _record_lost(
        self, stats: QueryResult, lost: List[int], keys: Sequence[str], server,
        rid: int, exc: Exception, at: float,
    ) -> None:
        """Lost-region policy of query evaluation (:meth:`_read_regions`'
        ``on_lost`` once ``stats`` and ``lost`` are bound): a region that
        stayed unreadable after retries degrades the query to a partial
        result (hits in the region are dropped), never crashes it."""
        key = keys[rid]
        stats.complete = False
        stats.lost_regions.append(key)
        stats.server_errors.setdefault(server.server_id, []).append(str(exc))
        lost.append(rid)
        self.system.tracer.instant(
            f"lost:{key}", server.clock, category="fault", at=at,
        )
        self.system.metrics.counter(
            "pdc_query_regions_lost_total",
            "Regions dropped from query answers after exhausting retries.",
        ).inc()

    def _read_regions(
        self,
        pairs,
        readers: int,
        name: str,
        counts: np.ndarray,
        itemsize: int,
        replica: str = "orig",
        on_lost: Optional[Callable[..., None]] = None,
        span: Optional[Dict[str, object]] = None,
        hit_copy: bool = False,
    ) -> Iterator[Tuple[object, List[int], List[int], List[Optional[bool]]]]:
        """Each server of ``pairs`` — (server, region ids) — makes its
        regions of ``name`` resident in one :meth:`PDCServer.touch_share`
        over the step's columns, priced as arrays with ``readers`` servers
        contending: a storage read on a miss, free on a hit (``hit_copy``: a
        memory copy).  Yields ``(server, region ids, real bytes,
        was_cached)`` lists per share.  A region still unreadable after the
        retries goes to ``on_lost(keys, server, rid, error, t)`` and is
        flagged ``None`` (no policy: the error propagates); ``span`` holds
        an ``eval:serverN`` span's attributes.
        """
        sysm = self.system
        pairs = [(server, mine) for server, mine in pairs if len(mine)]
        if not pairs:
            return
        rids = pairs[0][1] if len(pairs) == 1 else np.concatenate([m for _, m in pairs])
        nbytes = counts[rids] * itemsize
        sizes, regions = nbytes.tolist(), rids.tolist()
        hit_s = sysm.cost.mem_copy_time(nbytes).tolist() if hit_copy else None
        keys = sysm.region_keys(name, replica, len(counts))
        seconds = sysm.cost.pfs_read_time(nbytes, 1, PDC_STRIPE_COUNT, readers).tolist()
        categories = ["pfs_read"] * len(sizes)
        report = None if on_lost is None else partial(on_lost, keys)
        share_keys, start = keys[rids].tolist(), 0
        for server, mine in pairs:
            stop = start + len(mine)
            hits = server.touch_share(
                share_keys, sizes, regions, seconds, categories, hit_s=hit_s,
                rows=range(start, stop), on_lost=report, span=span,
            )
            yield server, regions[start:stop], sizes[start:stop], hits
            start = stop

    def _tally_reads(
        self, target, nbytes: Sequence[int], hits: Sequence[bool],
        regions: Optional[Sequence[bool]] = None,
    ) -> None:
        """Count touched accesses on a :class:`QueryResult` or
        :class:`GetDataResult`: cached, or read with their virtual bytes and,
        where ``regions`` says (default: every access), as a region read (a
        lost one, flagged ``None``, is neither)."""
        scale = self.system.cost.virtual_scale
        for size, hit, region in zip(nbytes, hits, repeat(1) if regions is None else regions):
            if hit:
                target.regions_cached += 1
            elif hit is not None:
                target.regions_read += region
                target.bytes_read_virtual += size * scale

    def _charge_per_server(
        self, amounts: np.ndarray, cost_of: Callable[[int], float], category: str
    ) -> None:
        """Charge every alive server ``cost_of(its amount)``; servers with
        nothing to do are charged nothing."""
        for server, n in zip(self.system.alive_servers, amounts):
            if n:
                server.clock.charge(cost_of(int(n)), category)

    def _charge_owner_scans(self, region_ids: np.ndarray, elems: np.ndarray) -> None:
        """Charge each listed region's owner a scan of its ``elems``
        elements."""
        sysm = self.system
        per_server = np.bincount(
            sysm.region_owner_positions(region_ids), weights=elems,
            minlength=len(sysm.alive_servers),
        )
        self._charge_per_server(per_server, sysm.cost.scan_time, "scan")

    def _gather_at_client(self, nbytes: int, scaled: bool = False) -> None:
        """The issuing rank waits for the slowest server, then receives the
        small per-server completion records."""
        sysm = self.system
        sysm.client_clock.advance_to(
            max(s.clock.now for s in sysm.alive_servers), category="comm"
        )
        sysm.client_clock.charge(sysm.cost.net_time(nbytes, scaled=scaled), "net")

    def _charge_data_reads(
        self, obj: StoredObject, region_ids: np.ndarray, stats: QueryResult
    ) -> np.ndarray:
        """Charge each server for making its share of regions resident.

        Returns the region ids that stayed unreadable after fault-recovery
        retries (always empty without an installed fault plan); callers
        drop those regions' hits from the answer (degraded mode).
        """
        lost: List[int] = []
        for _server, _rids, nbytes, hits in self._read_regions(
            *self._assignment_with_faults(region_ids, stats), obj.name,
            obj.counts, obj.itemsize,
            on_lost=partial(self._record_lost, stats, lost),
            span={"object": obj.name},
        ):
            self._tally_reads(stats, nbytes, hits)
        return np.asarray(lost, dtype=np.int64)

    def _charge_scan(
        self, obj: StoredObject, region_ids: np.ndarray, constraint: Tuple[int, int]
    ) -> None:
        """Charge the per-server full scan of the given regions (clipped to
        the spatial constraint)."""
        cstart, cstop = constraint
        starts = np.maximum(obj.offsets[region_ids], cstart)
        stops = np.minimum(obj.offsets[region_ids] + obj.counts[region_ids], cstop)
        self._charge_owner_scans(region_ids, np.maximum(stops - starts, 0))

    def _charge_index_reads(
        self, obj: StoredObject, region_ids: np.ndarray, interval: Interval,
        stats: QueryResult,
    ) -> np.ndarray:
        """PDC-HI: probe region indexes instead of reading data (§III-D4).

        FastBit seeks into the index file and reads only the bitmaps of
        bins overlapping the condition (cached afterwards); candidate bins
        (off-grid endpoints) additionally force a raw region read to verify
        boundary values.  The step's footprints and seconds are arrays (one
        classification of the object index's rows), its accesses columns
        (index file, then candidate read, region by region) each server
        walks in :meth:`PDCServer.touch_share`.  Returns region ids lost to
        exhausted retries (degraded mode), as :meth:`_charge_data_reads`.
        """
        sysm, cost = self.system, self.system.cost
        table = obj.indexes
        assert table is not None
        pairs, readers = self._assignment_with_faults(region_ids, stats)
        pairs = [(server, mine) for server, mine in pairs if mine.size]
        lost: List[int] = []
        if not pairs:
            return np.asarray(lost, dtype=np.int64)
        rids = np.concatenate([mine for _, mine in pairs])
        words, candidates = table.footprint(interval, rids)
        # Uncompacted WAH delta segments (continuous ingest): the base bitmap
        # predates them, so every delta position is scanned and stays a
        # candidate until background compaction folds the segments in.
        n_delta = table.delta[rids]
        candidates = candidates + n_delta
        nbytes = obj.counts[rids] * obj.itemsize
        probe_bytes = words * 8
        read_s = cost.pfs_read_time(nbytes, 1, PDC_STRIPE_COUNT, readers).tolist()
        # The step's accesses, in region order: each region's index file,
        # then — when it has candidates — its data for the check.
        checks, n = candidates > 0, rids.size
        selector = [True] * (2 * n)
        selector[1::2] = checks.tolist()
        index_keys = sysm.region_keys(obj.name, "idx", obj.n_regions)
        data_keys = sysm.region_keys(obj.name, "orig", obj.n_regions)
        regions, sizes = rids.tolist(), nbytes.tolist()
        probe = probe_bytes.tolist()
        keys = _interleave(selector, index_keys[rids].tolist(), data_keys[rids].tolist())
        miss_s = _interleave(
            selector,
            self._index_probe_time(probe_bytes, table.header_bytes[rids], readers).tolist(),
            read_s,
        )
        then = [(_interleave(selector, cost.wah_scan_time(words).tolist(),
                             cost.scan_time(candidates).tolist()), "scan")]
        if n_delta.any():
            deltas = [s if d else None
                      for s, d in zip(cost.scan_time(n_delta).tolist(), n_delta.tolist())]
            then.append((_interleave(selector, deltas, [None] * n), "scan"))
        data = _interleave(selector, [False] * n, [True] * n)
        columns = dict(
            keys=keys, sizes=_interleave(selector, table.nbytes[rids].tolist(), sizes),
            regions=_interleave(selector, regions, regions), miss_s=miss_s,
            miss_category=_interleave(selector, ["index_read"] * n, ["pfs_read"] * n),
            then=then, sampled=data, span_bytes=_interleave(selector, probe, sizes),
        )
        stops = np.cumsum(1 + checks)[np.cumsum([mine.size for _, mine in pairs]) - 1]
        report = partial(self._record_lost, stats, lost, data_keys)
        span = {"object": obj.name, "regions": None, "index": True}  # regions: per share
        stats.index_reads += rids.size
        start = 0
        for (server, _), stop in zip(pairs, stops.tolist()):
            hits = server.touch_share(
                **columns, rows=range(start, stop), on_lost=report, span=span,
            )
            # An index file's read is not a region read.
            self._tally_reads(stats, columns["span_bytes"][start:stop], hits, data[start:stop])
            start = stop
        return np.asarray(lost, dtype=np.int64)

    def _index_probe_time(self, bytes_touched, header_bytes, readers: int):
        """Simulated seconds of a cold index probe touching ``bytes_touched``
        of bitmaps behind a ``header_bytes`` directory (scalars, or arrays
        over many probes)."""
        cost = self.system.cost
        return cost.pfs_read_time(
            bytes_touched, 1, PDC_STRIPE_COUNT, readers
        ) + cost.pfs_read_time(header_bytes, 0, 1, 1, scaled=False)

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
        key_name = group.replica.key_name
        lost: List[int] = []
        for _server, _rids, _nbytes, hits in self._read_regions(
            *self._assignment_with_faults(region_ids, stats), key_name,
            group.counts, itemsize, replica=f"sorted:{which}",
            on_lost=partial(self._record_lost, stats, lost),
            span={"object": key_name, "replica": which},
        ):
            # Known defect, pinned by tests/query/test_plan.py: replica
            # reads count regions but not virtual bytes (fixing it moves
            # benchmark baselines — ROADMAP item 1).
            stats.regions_cached += hits.count(True)
            stats.regions_read += hits.count(False)
        return np.asarray(lost, dtype=np.int64)

    def _bytes_per_server(
        self, obj: StoredObject, coords: np.ndarray, itemsize: int
    ) -> np.ndarray:
        """Result bytes each *alive* server ships, by hit ownership."""
        region_ids, hits = obj.region_hits(coords)
        return np.bincount(
            self.system.region_owner_positions(region_ids), weights=hits,
            minlength=len(self.system.alive_servers),
        ) * itemsize

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
        self._charge_per_server(
            per_server, lambda n: sysm.cost.net_time(n, scaled=n > 8), "net"
        )
        self._gather_at_client(16 * sysm.n_servers)

    # -------------------------------------------------------------- get_data
    def _charge_get_data_reads(
        self, obj: StoredObject, replica: Optional[ReplicaGroup],
        selection: Selection, result: GetDataResult,
    ) -> None:
        """Make the regions holding a selection's hits resident and copy
        them out: whole regions of the original object, or — PDC-SH — of
        the sorted replica, where the hits live contiguously and were
        already cached by the evaluation pass."""
        sysm, parts = self.system, []
        if replica is None:
            orig, _ = obj.region_hits(selection.coords)
            if not sysm.config.get_data_whole_regions:
                pairs, readers = self._route(orig)
                self._read_hit_extents(obj, selection, pairs, readers, result)
                return
        else:  # dirty coordinates' values live only in the original regions
            regions, orig = planner.replica_regions_of(replica, obj, selection.coords)
            name = replica.replica.key_name
            tag = f"sorted:{obj.name if obj.name != name else 'key'}"
            parts.append((regions, name, replica.counts, tag))
        if orig.size:
            parts.append((orig, obj.name, obj.counts, "orig"))
        for regions, name, counts, tag in parts:
            for _server, _rids, nbytes, hits in self._read_regions(
                *self._route(regions), name, counts, obj.itemsize,
                replica=tag, hit_copy=True,
            ):
                self._tally_reads(result, nbytes, hits)

    def _read_hit_extents(
        self, obj: StoredObject, selection: Selection, pairs, readers: int,
        result: GetDataResult,
    ) -> None:
        """Ablation mode (``get_data_whole_regions=False``): of a region not
        yet resident only the hit extents are read, merged by the §III-E
        aggregator (many small accesses when the hits are scattered — the
        effect whole-region reads avoid); a resident region is copied from
        memory as usual."""
        sysm = self.system
        stripes = PDC_STRIPE_COUNT
        for server, mine in pairs:
            for rid in mine.tolist():
                key = region_key(obj.name, rid)
                if server.cache.contains(key):  # a hit: copied from memory
                    server.ensure_region(
                        key, int(obj.counts[rid]) * obj.itemsize, 1, stripes, readers,
                        hit_copy=True,
                    )
                    result.regions_cached += 1
                    continue
                off = int(obj.offsets[rid])
                in_region = selection.clip(off, off + int(obj.counts[rid])).coords
                extents = coords_to_extents(
                    in_region, gap_threshold=_AGGREGATION_GAP_ELEMENTS
                )
                nb = sum(b - a for a, b in extents) * obj.itemsize
                server.clock.charge(
                    sysm.cost.pfs_read_time(nb, len(extents), stripes, readers),
                    "pfs_read",
                )
                result.regions_read += 1
                result.bytes_read_virtual += nb * sysm.cost.virtual_scale
