"""Cost-based query planning — the paper's stated future work (§IX:
*"bringing query optimization techniques used by relational database
management systems to object-centric data management"*).

Given a query and the deployment state (which objects have indexes,
whether a sorted replica covers the query, what is cached), the planner
estimates the simulated cost of evaluating each conjunct under every
applicable strategy and picks the cheapest.  Estimates use only metadata
that the servers already cache — global histograms (selectivity bounds,
surviving-region counts) and per-region sizes — so planning itself is
O(regions) arithmetic with no I/O, exactly the regime the paper's global
histogram enables.

Three public entry points:

* :func:`plan_conjunct` — the one per-conjunct decision of §III-C/§III-D2
  (evaluation order, min/max region elimination, access path) as a
  :class:`ConjunctPlan` value: the executor charges and answers from it,
  batch demand planning reads its :attr:`~ConjunctPlan.data_regions`, and
  the estimates below price it;
* :func:`choose_strategy` — the ``Strategy.AUTO`` resolver used by the
  executor;
* :func:`explain` — a human-readable plan (evaluation order, selectivity
  estimates, regions pruned, chosen access paths, cost estimates per
  strategy), in the spirit of SQL ``EXPLAIN``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..histogram.selectivity import order_by_selectivity
from ..interval import Interval
from ..pdc.system import PDCSystem, ReplicaGroup, StoredObject
from ..storage.cache import RegionCache
from ..strategies import Strategy
from .ast import Conjunct, QueryNode, typed_conjuncts

__all__ = [
    "PlanStep",
    "ConjunctPlan",
    "plan_conjunct",
    "plan_query",
    "StepEstimate",
    "PlanEstimate",
    "estimate_plan",
    "choose_strategy",
    "choose_get_data_strategy",
    "explain",
]

#: Rough bytes of index bitmaps touched per (upper-bound) hit.
_INDEX_BYTES_PER_HIT = 16.0
#: Fixed per-region probe overhead (directory) in bytes.
_INDEX_DIR_BYTES = 2048.0


@dataclass
class PlanStep:
    """One condition's place in a :class:`ConjunctPlan`."""

    name: str
    interval: Interval
    #: (lower, upper) global-histogram selectivity bounds; (0, 1) unknown.
    selectivity: Tuple[float, float]
    #: How the step touches storage, in ``StepActual.access_path`` terms.
    path: str
    #: Region ids inside the spatial constraint that may hold matches (the
    #: survivors of min/max elimination; all of them when nothing prunes).
    #: The first step touches every one, later steps those still holding
    #: candidates; unused on the sorted-replica path, whose run the binary
    #: search locates.
    regions: np.ndarray
    #: Aligned with ``regions``: the survivors whose min/max lie inside the
    #: interval, so every element is a hit and none is masked.
    covered: np.ndarray
    #: Regions of the constraint eliminated by min/max — never read.
    pruned: int = 0


@dataclass
class ConjunctPlan:
    """How one AND-group of per-object intervals will be evaluated —
    decided once, from server-cached metadata alone (building a plan
    touches no clock, cache or metric)."""

    #: Conditions in evaluation order.
    steps: List[PlanStep]
    #: §III-C: a histogram proves some condition matches nothing, so the
    #: whole conjunct is skipped without touching storage.
    proved_empty: bool = False
    #: A sorted replica covering every queried object and keyed on the
    #: first condition, if one exists — what PDC-SH answers from.
    replica: Optional[ReplicaGroup] = None

    @property
    def data_regions(self) -> Dict[str, np.ndarray]:
        """Plain data regions read up front, per object: the first
        condition's survivors, or every object's regions under PDC-F's
        pre-load — the reads a batch's shared-scan pass can do once.  Empty
        for index probes and replica runs, which read other files."""
        if self.proved_empty:
            return {}
        return {
            s.name: s.regions for s in self.steps
            if s.path in ("full-read+scan", "pruned-read+scan")
        }


#: What a region's min/max settle about one interval (:func:`region_states`).
PRUNED, STRADDLING, COVERED = 0, 1, 2


def surviving_regions(
    obj: StoredObject,
    interval: Interval,
    constraint: Optional[Tuple[int, int]] = None,
    prune: bool = True,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Histogram region elimination (§III-D2): the regions intersecting
    ``constraint`` (flat half-open bounds; None = the whole object) whose
    min/max can overlap the condition, which of them the condition covers
    (min/max inside it: every element matches), and how many were
    eliminated — those are never read.  ``prune=False`` keeps every
    region and covers none."""
    first, last = 0, obj.n_regions - 1
    if constraint is not None:
        first = constraint[0] // obj.region_elements
        last = min((constraint[1] - 1) // obj.region_elements, last)
    candidates = np.arange(first, last + 1, dtype=np.int64)
    if not prune:
        return candidates, np.zeros(candidates.size, dtype=bool), 0
    rmin, rmax = obj.rmin[first : last + 1], obj.rmax[first : last + 1]
    keep = interval.overlaps_range_arrays(rmin, rmax)
    covered = interval.contains_range_arrays(rmin, rmax)[keep]
    return candidates[keep], covered, int(keep.size - np.count_nonzero(keep))


def region_states(n_regions: int, regions: np.ndarray, covered: np.ndarray) -> np.ndarray:
    """Per region of an object, as an ``int8`` lookup table: ``COVERED`` or
    ``STRADDLING`` for the listed survivors (``covered`` aligned with
    them), ``PRUNED`` for every other region."""
    states = np.full(n_regions, PRUNED, dtype=np.int8)
    states[regions] = STRADDLING + covered
    return states


def plan_conjunct(
    system: PDCSystem,
    conjunct: Conjunct,
    strategy: Strategy,
    constraint: Optional[Tuple[int, int]] = None,
    ordering: bool = True,
    pruning: bool = True,
) -> ConjunctPlan:
    """Decide how ``strategy`` evaluates one conjunct within ``constraint``:
    conditions ordered by global-histogram selectivity (§III-C), regions
    eliminated by min/max (§III-D2), and the access path of each step.

    ``ordering`` / ``pruning`` are the engine's ablation knobs: without the
    first, conditions keep user order (and nothing is proved empty);
    without the second, every region of the constraint survives.  PDC-F
    uses neither (§III-D1).
    """
    items = list(conjunct.items())
    proved_empty, replica = False, None
    if strategy.uses_histogram and ordering:
        hists = {}
        for name, _ in items:
            hist = system.get_object(name).meta.global_histogram
            if hist is not None:
                hists[name] = hist
        ordered = order_by_selectivity(items, hists)
        # An upper selectivity bound of zero: no histogram bin overlaps.
        proved_empty = any(
            est is not None and est.upper == 0.0 for _, _, est in ordered
        )
    else:
        ordered = [(name, interval, None) for name, interval in items]
    if strategy.uses_histogram:
        group = system.replica_covering([name for name, _, _ in ordered])
        if group is not None and group.replica.key_name == ordered[0][0]:
            replica = group
    # Without an applicable replica — e.g. selectivity put another object
    # first, Fig. 4's last queries — PDC-SH behaves like PDC-H (§VI-B).
    sorted_run = strategy is Strategy.SORT_HIST and replica is not None
    steps: List[PlanStep] = []
    for i, (name, interval, est) in enumerate(ordered):
        obj = system.get_object(name)
        if sorted_run:
            path = "binary-search-run" if i == 0 else "replica-slice"
        elif strategy is Strategy.FULL_SCAN:
            path = "full-read+scan"
        elif strategy is Strategy.HIST_INDEX and obj.indexes is not None:
            path = "index-probe"
        else:
            path = "pruned-read+scan" if i == 0 else "recheck"
        regions, covered, pruned = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool), 0
        if not sorted_run:  # the binary search, not min/max, locates the run
            regions, covered, pruned = surviving_regions(
                obj, interval, constraint, strategy.uses_histogram and pruning
            )
        sel = (est.lower, est.upper) if est is not None else (0.0, 1.0)
        steps.append(PlanStep(name, interval, sel, path, regions, covered, pruned))
    return ConjunctPlan(steps, proved_empty, replica)


def plan_query(
    system: PDCSystem, node: QueryNode, strategy: Strategy, *plan_args
) -> Iterator[Tuple[int, ConjunctPlan]]:
    """``(DNF conjunct index, plan)`` per satisfiable, typed conjunct of a
    condition tree (:func:`typed_conjuncts`), built lazily in evaluation
    order; ``plan_args`` are :func:`plan_conjunct`'s constraint and knobs."""
    for ci, conjunct in typed_conjuncts(node, system.type_of):
        yield ci, plan_conjunct(system, conjunct, strategy, *plan_args)


def replica_regions_of(group: ReplicaGroup, coords: np.ndarray) -> np.ndarray:
    """Replica region ids holding the given original coordinates, through
    the inverse permutation (computed once and cached on the group)."""
    inv = getattr(group, "_inverse_perm", None)
    if inv is None:
        inv = np.empty_like(group.replica.permutation)
        inv[group.replica.permutation] = np.arange(
            group.replica.n_elements, dtype=np.int64
        )
        group._inverse_perm = inv  # type: ignore[attr-defined]
    # Few distinct regions under many coordinates: count, don't sort.
    held = np.flatnonzero(np.bincount(inv[coords] // group.region_elements))
    return np.minimum(held, group.n_regions - 1)


@dataclass
class StepEstimate:
    """One condition's place in the plan."""

    object_name: str
    interval: Interval
    #: (lower, upper) selectivity bounds from the global histogram.
    selectivity: Tuple[float, float]
    #: Regions that survive min/max elimination (first step) or an upper
    #: bound on candidate regions (later steps).
    surviving_regions: int
    total_regions: int
    #: Access path chosen for this step under the plan's strategy.
    access_path: str
    #: Which DNF conjunct this step belongs to (matches
    #: :attr:`~repro.query.executor.StepActual.conjunct`).
    conjunct: int = 0
    #: (lower, upper) estimated hits surviving after this condition —
    #: cumulative within the conjunct under an independence assumption,
    #: directly comparable to the executor's measured
    #: :attr:`~repro.query.executor.StepActual.hits`.
    est_hits: Tuple[float, float] = (0.0, 0.0)

    @property
    def pruned_fraction(self) -> float:
        if self.total_regions == 0:
            return 0.0
        return 1.0 - self.surviving_regions / self.total_regions


@dataclass
class PlanEstimate:
    """Estimated cost of one strategy for a whole query."""

    strategy: Strategy
    est_seconds: float
    steps: List[StepEstimate] = field(default_factory=list)
    #: Why this strategy was (un)available / notable.
    notes: List[str] = field(default_factory=list)


def _uncached_fraction(
    system: PDCSystem, name: str, region_ids: np.ndarray, replica: str = "orig"
) -> float:
    """Fraction of the given regions not resident in their live owner's
    cache — the server the executor would route each read to, which after
    a failover, retirement or rebalance is not ``rid % n_servers``."""
    if region_ids.size == 0:
        return 0.0
    keys = system.region_keys(name, replica, int(region_ids.max()) + 1)
    caches = [server.cache for server in system.alive_servers]
    resident = sum(map(
        RegionCache.contains,
        map(caches.__getitem__, system.region_owner_positions(region_ids).tolist()),
        map(keys.__getitem__, region_ids.tolist()),
    ))
    return (region_ids.size - resident) / region_ids.size


def _read_cost(system: PDCSystem, nbytes: float, n_accesses: float) -> float:
    """Estimated parallel read seconds for work spread over all servers."""
    n = system.n_servers
    per_server_bytes = nbytes / n
    per_server_accesses = max(1.0, n_accesses / n)
    return system.cost.pfs_read_time(
        int(per_server_bytes), int(per_server_accesses),
        system.config.pdc_stripe_count, n,
    )


def _scan_cost(system: PDCSystem, n_elements: float) -> float:
    return system.cost.scan_time(int(n_elements / system.n_servers))


def _estimate(
    system: PDCSystem,
    plans: List[Tuple[int, ConjunctPlan]],
    strategy: Strategy,
    histogram: Optional[PlanEstimate] = None,
) -> PlanEstimate:
    """Price ``strategy`` over already-planned conjuncts.  ``histogram`` is
    the PDC-H estimate over the same plans when the caller already has it
    (PDC-SH falls back to it where no sorted replica applies)."""
    plan = PlanEstimate(strategy=strategy, est_seconds=0.0)
    total = system.cost.params.client_overhead_s

    for ci, conjunct in plans:
        steps = conjunct.steps
        first = steps[0]
        first_obj = system.get_object(first.name)
        n_elems = first_obj.n_elements
        itemsize = first_obj.itemsize
        # Upper-bound hit estimate drives candidate work for later steps.
        hits_ub = first.selectivity[1] * n_elems
        # Cumulative surviving-hit bounds after each step (independence
        # assumption within the conjunct) — what EXPLAIN ANALYZE compares
        # against the executor's measured per-step hits.
        cum_hits: List[Tuple[float, float]] = []
        lo_acc, hi_acc = 1.0, 1.0
        for s in steps:
            lo_acc *= s.selectivity[0]
            hi_acc *= s.selectivity[1]
            cum_hits.append((lo_acc * n_elems, hi_acc * n_elems))

        def add_step(j: int, surviving: int, total_regions: int, path: str) -> None:
            s = steps[j]
            plan.steps.append(
                StepEstimate(
                    s.name, s.interval, s.selectivity, surviving, total_regions,
                    path, conjunct=ci, est_hits=cum_hits[j],
                )
            )

        if strategy is Strategy.FULL_SCAN:
            for j, s in enumerate(steps):
                obj = system.get_object(s.name)
                all_rids = np.arange(obj.n_regions, dtype=np.int64)
                frac = _uncached_fraction(system, s.name, all_rids)
                total += _read_cost(
                    system, obj.data.nbytes * frac, obj.n_regions * frac
                )
                add_step(j, obj.n_regions, obj.n_regions, "full-read+scan")
            total += _scan_cost(system, n_elems)
            total += _scan_cost(system, hits_ub * (len(steps) - 1))

        elif strategy in (Strategy.HISTOGRAM, Strategy.HIST_INDEX):
            use_index = (
                strategy is Strategy.HIST_INDEX
                and all(system.get_object(s.name).indexes is not None for s in steps)
            )
            if strategy is Strategy.HIST_INDEX and not use_index:
                plan.notes.append("index missing on some objects: data reads instead")
            for i, s in enumerate(steps):
                obj = system.get_object(s.name)
                surviving = s.regions
                if i > 0:
                    # Later steps touch at most the regions holding the
                    # current candidates.
                    cand_regions = min(
                        surviving.size, int(np.ceil(hits_ub / max(1, obj.region_elements)))
                    )
                    surviving = surviving[:cand_regions]
                region_bytes = float(obj.counts[surviving].sum()) * obj.itemsize
                frac = _uncached_fraction(system, s.name, surviving)
                if use_index:
                    touched = hits_ub * _INDEX_BYTES_PER_HIT + surviving.size * _INDEX_DIR_BYTES
                    total += _read_cost(system, touched / system.cost.virtual_scale * frac, surviving.size * frac)
                    total += system.cost.wah_scan_time(int(touched / 8))
                    path = "index-probe"
                else:
                    total += _read_cost(system, region_bytes * frac, surviving.size * frac)
                    total += _scan_cost(
                        system,
                        float(obj.counts[surviving].sum()) if i == 0 else hits_ub,
                    )
                    path = "pruned-read+scan"
                add_step(i, int(surviving.size), obj.n_regions, path)

        elif strategy is Strategy.SORT_HIST:
            group = conjunct.replica
            if group is None:
                plan.notes.append(
                    "sorted replica not applicable (missing or planner puts "
                    "another object first): histogram path"
                )
                fallback = histogram or _estimate(system, plans, Strategy.HISTOGRAM)
                plan.steps = fallback.steps
                plan.est_seconds = fallback.est_seconds
                return plan
            run_elems = hits_ub
            run_bytes = run_elems * (8 + itemsize * max(0, len(steps) - 1))
            total += system.cost.binary_search_time(n_elems)
            total += _read_cost(system, run_bytes, max(1.0, run_elems / group.region_elements))
            total += _scan_cost(system, run_elems * max(0, len(steps) - 1))
            add_step(
                0, int(np.ceil(run_elems / group.region_elements)),
                group.n_regions, "binary-search-run",
            )
            for j in range(1, len(steps)):
                add_step(j, 0, group.n_regions, "replica-slice")

        # Result transfer (selection coordinates).
        total += system.cost.net_time(int(hits_ub * 8 / system.n_servers))

    plan.est_seconds = total
    return plan


def estimate_plan(
    system: PDCSystem, node: QueryNode, strategy: Strategy
) -> PlanEstimate:
    """Estimate the simulated cost of one strategy for a query tree."""
    return _estimate(system, list(plan_query(system, node, Strategy.HISTOGRAM)), strategy)


def choose_strategy(
    system: PDCSystem, node: QueryNode, record: bool = True
) -> Tuple[Strategy, List[PlanEstimate]]:
    """Pick the cheapest applicable strategy for a query.

    Returns the winner and the full list of candidate estimates (sorted
    cheapest first), so callers can explain the decision.  ``record=False``
    skips the planner metrics/trace side effects — for speculative
    resolutions (batch demand planning) that the executor will repeat
    for real.
    """
    # Each conjunct is ordered and pruned once, over the whole object; the
    # four estimates only differ in how they price the same steps.
    plans = list(plan_query(system, node, Strategy.HISTOGRAM))
    candidates = [
        _estimate(system, plans, s)
        for s in (Strategy.FULL_SCAN, Strategy.HISTOGRAM, Strategy.HIST_INDEX)
    ]
    candidates.append(
        _estimate(system, plans, Strategy.SORT_HIST, histogram=candidates[1])
    )
    candidates.sort(key=lambda p: p.est_seconds)
    winner = candidates[0].strategy
    if record:
        system.metrics.counter(
            "pdc_plans_total", "AUTO planner decisions, by chosen strategy.",
            labels=("strategy",),
        ).labels(strategy=winner.name).inc()
        if system.tracer.enabled:
            system.tracer.instant(
                "plan_decision", system.client_clock,
                strategy=winner.name,
                estimates={p.strategy.name: p.est_seconds for p in candidates},
            )
    return winner, candidates


def choose_get_data_strategy(
    system: PDCSystem, object_name: str, selection
) -> Strategy:
    """Resolve ``Strategy.AUTO`` for ``get_data`` (value materialization).

    The only access-path decision in ``get_data`` is whether to read the
    hit-holding regions of the *original* object or the contiguous run on
    a *sorted replica* covering it (§III-D3: replica regions were usually
    cached by the evaluation pass).  Estimates are cache-aware and use
    only metadata the servers already hold — no I/O, like
    :func:`choose_strategy`.
    """
    group = system.replica_covering([object_name])
    if group is None or selection.is_empty:
        return Strategy.HISTOGRAM
    obj = system.get_object(object_name)
    itemsize = obj.itemsize

    orig_regions, _ = obj.region_hits(selection.coords)
    frac_orig = _uncached_fraction(system, object_name, orig_regions)
    orig_bytes = float(obj.counts[orig_regions].sum()) * itemsize * frac_orig

    # Replica path: hits mapped to sorted positions, then replica regions.
    repl_regions = replica_regions_of(group, selection.coords)
    which = object_name if object_name != group.replica.key_name else "key"
    frac_repl = _uncached_fraction(
        system, group.replica.key_name, repl_regions, replica=f"sorted:{which}"
    )
    repl_bytes = float(group.counts[repl_regions].sum()) * itemsize * frac_repl

    if repl_bytes < orig_bytes or (
        repl_bytes == orig_bytes and repl_regions.size <= orig_regions.size
    ):
        return Strategy.SORT_HIST
    return Strategy.HISTOGRAM


def explain(system: PDCSystem, node: QueryNode, strategy: Optional[Strategy] = None) -> str:
    """Render a human-readable plan for a query."""
    lines = [f"QUERY  {node}"]
    if strategy is None or strategy is Strategy.AUTO:
        chosen, candidates = choose_strategy(system, node)
        lines.append("AUTO strategy selection (estimated seconds):")
        for p in candidates:
            marker = "->" if p.strategy is chosen else "  "
            lines.append(f"  {marker} {p.strategy.paper_label:<8} {p.est_seconds:10.6f}s")
        plan = next(p for p in candidates if p.strategy is chosen)
    else:
        plan = estimate_plan(system, node, strategy)
        lines.append(
            f"strategy {plan.strategy.paper_label}: estimated {plan.est_seconds:.6f}s"
        )
    for note in plan.notes:
        lines.append(f"  note: {note}")
    lines.append("evaluation steps:")
    for i, s in enumerate(plan.steps, 1):
        lines.append(
            f"  {i}. {s.object_name} {s.interval}  "
            f"selectivity [{s.selectivity[0] * 100:.4f}%, {s.selectivity[1] * 100:.4f}%]  "
            f"{s.access_path}  regions {s.surviving_regions}/{s.total_regions} "
            f"({s.pruned_fraction * 100:.0f}% pruned)  "
            f"est hits [{s.est_hits[0]:.0f}, {s.est_hits[1]:.0f}]"
        )
    return "\n".join(lines)
