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

Four public entry points:

* :func:`plan_conjunct` — the one per-conjunct decision of §III-C/§III-D2
  (evaluation order, min/max region elimination, access path) as a
  :class:`ConjunctPlan` value: the executor charges and answers from it,
  and the estimates below price it;
* :class:`PlanBook` — one ``execute`` / ``execute_batch`` call's typed
  conjuncts and plans, each built once and read by every step of the call;
* :func:`choose_strategy` — the ``Strategy.AUTO`` resolver used by the
  executor;
* :func:`explain` — a human-readable plan (evaluation order, selectivity
  estimates, regions pruned, chosen access paths, cost estimates per
  strategy), in the spirit of SQL ``EXPLAIN``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import contains
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..histogram.selectivity import order_by_selectivity
from ..interval import Interval
from ..pdc.system import PDCSystem, ReplicaGroup, StoredObject
from ..storage.file import PDC_STRIPE_COUNT
from ..strategies import Strategy
from .ast import Conjunct, QueryNode, typed_conjuncts

__all__ = [
    "PlanStep",
    "ConjunctPlan",
    "plan_conjunct",
    "plan_query",
    "PlanBook",
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
        pre-load.  Empty for index probes and replica runs, which read
        other files."""
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
        hists = {name: system.get_object(name).meta.global_histogram for name, _ in items}
        ordered = order_by_selectivity(items, hists)
        # An upper selectivity bound of zero: no histogram bin overlaps.
        proved_empty = any(est.upper == 0.0 for _, _, est in ordered)
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
        if sorted_run:  # the binary search, not min/max, locates the run
            regions, covered, pruned = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool), 0
        else:
            regions, covered, pruned = surviving_regions(
                obj, interval, constraint, strategy.uses_histogram and pruning
            )
        # A plan is shared by every reader of a book: an in-place edit would
        # corrupt the next query's plan, so it raises instead.
        regions.flags.writeable = covered.flags.writeable = False
        sel = (est.lower, est.upper) if est is not None else (0.0, 1.0)
        steps.append(PlanStep(name, interval, sel, path, regions, covered, pruned))
    return ConjunctPlan(steps, proved_empty, replica)


def plan_query(
    system: PDCSystem, node: QueryNode, strategy: Strategy, *plan_args
) -> Iterator[Tuple[int, ConjunctPlan]]:
    """``(DNF conjunct index, plan)`` per satisfiable, typed conjunct of a
    condition tree (:func:`typed_conjuncts`), built lazily in evaluation
    order; ``plan_args`` are :func:`plan_conjunct`'s constraint and knobs.
    The standalone form of :meth:`PlanBook.plans`, for a one-off caller."""
    return PlanBook(system).plans(node, strategy, *plan_args)


class PlanBook:
    """The plans of one :meth:`~repro.query.executor.QueryEngine.execute` or
    ``execute_batch`` call: each condition tree's typed conjuncts, and its
    :class:`ConjunctPlan` per (strategy, constraint, ordering, pruning),
    built on first use and read by every later step of the call — batch
    demand, the semantic-cache key, ``AUTO``'s pricing and execution.

    Entries are keyed by the tree: trees are frozen values, so equal trees
    share them, and equal trees type and plan identically.  A book lives
    for one call and is passed down as a local, never stored: plans read
    only metadata no query changes (histograms, min/max, indexes,
    replicas), never cache residency or server membership, and a service
    window applies its writes before its reads."""

    def __init__(self, system: PDCSystem) -> None:
        self.system = system
        #: tree -> (typed conjuncts, plan key -> plan)
        self._entries: Dict[QueryNode, Tuple[List[Tuple[int, Conjunct]], dict]] = {}
        #: id(tree) -> (tree, its entry): a call asks about the same tree
        #: object many times, and hashing a tree walks all of it.
        self._by_id: Dict[int, tuple] = {}

    def _entry(self, node: QueryNode) -> Tuple[List[Tuple[int, Conjunct]], dict]:
        seen = self._by_id.get(id(node))
        if seen is not None and seen[0] is node:
            return seen[1]
        entry = self._entries.get(node)
        if entry is None:  # a tree that fails to type is retried, and fails, each time
            entry = self._entries[node] = (typed_conjuncts(node, self.system.type_of), {})
        self._by_id[id(node)] = (node, entry)
        return entry

    def conjuncts(self, node: QueryNode) -> List[Tuple[int, Conjunct]]:
        """:func:`typed_conjuncts` of ``node``."""
        return self._entry(node)[0]

    def plans(
        self,
        node: QueryNode,
        strategy: Strategy,
        constraint: Optional[Tuple[int, int]] = None,
        ordering: bool = True,
        pruning: bool = True,
    ) -> Iterator[Tuple[int, ConjunctPlan]]:
        """:func:`plan_query` of ``node`` through the book: each plan is
        built the first time it is asked for."""
        conjuncts, plans = self._entry(node)
        for ci, conjunct in conjuncts:
            key = (ci, strategy, constraint, ordering, pruning)
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = plan_conjunct(
                    self.system, conjunct, strategy, constraint, ordering, pruning
                )
            yield ci, plan


def replica_regions_of(
    group: ReplicaGroup, obj: StoredObject, coords: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Where PDC-SH reads the values of ``obj`` at the ascending original
    ``coords``: the replica region ids holding the clean ones, through the
    inverse permutation (computed once and cached on the group), and the
    regions of ``obj`` holding the dirty ones, whose values the replica
    does not hold."""
    replica, orig = group.replica, np.zeros(0, dtype=np.int64)
    dirty = coords >= replica.n_elements  # appended
    if replica.dirty_mask is not None:
        dirty |= replica.dirty_mask[np.minimum(coords, replica.n_elements - 1)]
    if dirty.any():
        orig, _ = obj.region_hits(coords[dirty])
        coords = coords[~dirty]
    inv = getattr(group, "_inverse_perm", None)
    if inv is None:
        inv = np.empty_like(group.replica.permutation)
        inv[group.replica.permutation] = np.arange(
            group.replica.n_elements, dtype=np.int64
        )
        group._inverse_perm = inv  # type: ignore[attr-defined]
    # Few distinct regions under many coordinates: count, don't sort.
    held = np.flatnonzero(np.bincount(inv[coords] // group.region_elements))
    return np.minimum(held, group.n_regions - 1), orig


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
    a failover is not ``rid % n_servers``."""
    if region_ids.size == 0:
        return 0.0
    keys = system.region_keys(name, replica, int(region_ids.max()) + 1)
    resident_keys = [server.cache.resident for server in system.alive_servers]
    resident = sum(map(
        contains,
        map(resident_keys.__getitem__, system.region_owner_positions(region_ids).tolist()),
        map(keys.__getitem__, region_ids.tolist()),
    ))
    return (region_ids.size - resident) / region_ids.size


def _estimates(book: PlanBook, node: QueryNode, plan_args: tuple) -> List[PlanEstimate]:
    """PDC-F, PDC-H, PDC-HI and PDC-SH priced over ``book``'s plans of
    ``node`` under ``plan_args`` (constraint and knobs), in that order.

    PDC-H's plans carry the order, selectivities, survivors and replica
    that PDC-HI and PDC-SH run too (they differ from it only in access
    path); PDC-F reads its own plans' regions.  One pass over the
    conjuncts: the steps, their hit bounds and the result transfer are
    shared, only the read and scan terms differ; each strategy sums its own
    terms in plan order.  PDC-SH takes PDC-H's estimate when some conjunct
    has no applicable sorted replica."""
    system = book.system
    cost, n, stripes = system.cost, system.n_servers, PDC_STRIPE_COUNT
    full_plans = [plan for _, plan in book.plans(node, Strategy.FULL_SCAN, *plan_args)]
    region_sets: Dict[Tuple[str, bytes], Tuple[float, float]] = {}

    def region_set(name: str, region_ids: np.ndarray) -> Tuple[float, float]:
        """(elements held, uncached fraction) of regions of ``name``, found
        once per region set: residency cannot change during one pricing,
        PDC-H and PDC-HI price the same survivors, and PDC-F's regions are
        the survivors whenever nothing prunes."""
        key = (name, region_ids.tobytes())
        found = region_sets.get(key)
        if found is None:
            found = region_sets[key] = (
                float(system.get_object(name).counts[region_ids].sum()),
                _uncached_fraction(system, name, region_ids),
            )
        return found

    def read_cost(nbytes: float, n_accesses: float) -> float:
        """Estimated parallel read seconds for work spread over all servers."""
        return cost.pfs_read_time(
            int(nbytes / n), int(max(1.0, n_accesses / n)), stripes, n
        )

    def scan_cost(n_elements: float) -> float:
        return cost.scan_time(int(n_elements / n))

    full, hist, index, run = estimates = [
        PlanEstimate(strategy=s, est_seconds=0.0)
        for s in (Strategy.FULL_SCAN, Strategy.HISTOGRAM, Strategy.HIST_INDEX, Strategy.SORT_HIST)
    ]
    t_full = t_hist = t_index = t_run = cost.params.client_overhead_s
    no_replica = False
    for (ci, conjunct), full_plan in zip(
        book.plans(node, Strategy.HISTOGRAM, *plan_args), full_plans
    ):
        steps = conjunct.steps
        objs = [system.get_object(s.name) for s in steps]
        first, first_obj = steps[0], objs[0]
        n_elems = first_obj.n_elements
        later = len(steps) - 1
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

        def step(j: int, surviving: int, total_regions: int, path: str) -> StepEstimate:
            s = steps[j]
            return StepEstimate(
                s.name, s.interval, s.selectivity, surviving, total_regions,
                path, conjunct=ci, est_hits=cum_hits[j],
            )

        # PDC-F: pre-load every region its plan reads, scan the first object,
        # check the candidates against the others.
        reads = full_plan.data_regions
        for j, (s, obj) in enumerate(zip(steps, objs)):
            rids = reads[s.name]
            elems, frac = region_set(s.name, rids)
            t_full += read_cost(elems * obj.itemsize * frac, rids.size * frac)
            full.steps.append(step(j, rids.size, obj.n_regions, "full-read+scan"))
        t_full += scan_cost(region_set(first.name, reads[first.name])[0])
        t_full += scan_cost(hits_ub * later)

        # PDC-H reads and scans the survivors; PDC-HI probes their indexes
        # instead, or reads like PDC-H where some object has none.
        use_index = all(obj.indexes is not None for obj in objs)
        if not use_index:
            index.notes.append("index missing on some objects: data reads instead")
        for i, (s, obj) in enumerate(zip(steps, objs)):
            surviving = s.regions
            if i > 0:
                # Later steps touch at most the regions holding the current
                # candidates.
                cand_regions = min(
                    surviving.size, math.ceil(hits_ub / max(1, obj.region_elements))
                )
                surviving = surviving[:cand_regions]
            elems, frac = region_set(s.name, surviving)
            read_s = read_cost(elems * obj.itemsize * frac, surviving.size * frac)
            scan_s = scan_cost(elems if i == 0 else hits_ub)
            t_hist += read_s
            t_hist += scan_s
            hist.steps.append(step(i, int(surviving.size), obj.n_regions, "pruned-read+scan"))
            if use_index:
                touched = hits_ub * _INDEX_BYTES_PER_HIT + surviving.size * _INDEX_DIR_BYTES
                t_index += read_cost(touched / cost.virtual_scale * frac, surviving.size * frac)
                t_index += cost.wah_scan_time(int(touched / 8))
                index.steps.append(step(i, int(surviving.size), obj.n_regions, "index-probe"))
            else:
                t_index += read_s
                t_index += scan_s
                index.steps.append(hist.steps[-1])

        # PDC-SH: a binary search, then the run's permutation and companions.
        group = conjunct.replica
        no_replica = no_replica or group is None
        if not no_replica:
            t_run += cost.binary_search_time(n_elems)
            t_run += read_cost(
                hits_ub * (8 + first_obj.itemsize * later),
                max(1.0, hits_ub / group.region_elements),
            )
            t_run += scan_cost(hits_ub * later)
            run.steps.append(step(
                0, math.ceil(hits_ub / group.region_elements),
                group.n_regions, "binary-search-run",
            ))
            run.steps.extend(
                step(j, 0, group.n_regions, "replica-slice") for j in range(1, len(steps))
            )
            # Coordinates written since the build: every queried object's
            # regions holding them are read and scanned, as PDC-H does.
            dirty = group.replica.dirty_coords(n_elems)
            if dirty.size:
                for s, obj in zip(steps, objs):
                    rids, _ = obj.region_hits(dirty)
                    elems, frac = region_set(s.name, rids)
                    t_run += read_cost(elems * obj.itemsize * frac, rids.size * frac)
                    t_run += scan_cost(dirty.size)

        # Result transfer (selection coordinates).
        net_s = cost.net_time(int(hits_ub * 8 / n))
        t_full += net_s
        t_hist += net_s
        t_index += net_s
        t_run += net_s

    full.est_seconds, hist.est_seconds, index.est_seconds = t_full, t_hist, t_index
    run.est_seconds = t_run
    if no_replica:
        run.notes.append(
            "sorted replica not applicable (missing or planner puts another "
            "object first): histogram path"
        )
        run.steps, run.est_seconds = hist.steps, hist.est_seconds
    return estimates


def estimate_plan(
    system: PDCSystem, node: QueryNode, strategy: Strategy
) -> PlanEstimate:
    """Estimate the simulated cost of one fixed strategy for a query tree
    over the whole objects."""
    estimates = _estimates(PlanBook(system), node, ())
    return {p.strategy: p for p in estimates}[strategy]


def choose_strategy(
    system: PDCSystem,
    node: QueryNode,
    record: bool = True,
    *plan_args,
    book: Optional[PlanBook] = None,
) -> Tuple[Strategy, List[PlanEstimate]]:
    """Pick the cheapest applicable strategy for a query.

    Returns the winner and the full list of candidate estimates (sorted
    cheapest first), so callers can explain the decision.  ``record=False``
    skips the planner metrics/trace side effects — for callers that only
    explain the decision.  ``plan_args`` are :func:`plan_conjunct`'s constraint and
    knobs — the executor prices the plans it would run; omitted, the whole
    objects are priced.  ``book``: the calling query's :class:`PlanBook`,
    whose plans the estimates read; only cache residency is priced live.
    """
    # Each conjunct is ordered and pruned once; the four estimates only
    # differ in how they price the same steps.
    book = PlanBook(system) if book is None else book
    candidates = _estimates(book, node, plan_args)
    candidates.sort(key=lambda p: p.est_seconds)
    winner = candidates[0].strategy
    if record:
        system.plan_decisions[winner.name].inc()
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

    # Replica path: clean hits mapped to sorted positions, then replica
    # regions; dirty hits read from the original regions.
    repl_regions, dirty_regions = replica_regions_of(group, obj, selection.coords)
    which = object_name if object_name != group.replica.key_name else "key"
    frac_repl = _uncached_fraction(
        system, group.replica.key_name, repl_regions, replica=f"sorted:{which}"
    )
    repl_bytes = float(group.counts[repl_regions].sum()) * itemsize * frac_repl
    frac_dirty = _uncached_fraction(system, object_name, dirty_regions)
    repl_bytes += float(obj.counts[dirty_regions].sum()) * itemsize * frac_dirty

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
