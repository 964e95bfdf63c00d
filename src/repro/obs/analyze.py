"""EXPLAIN ANALYZE: join planner estimates with executor actuals.

``repro.query.planner.explain`` renders what the planner *thinks* will
happen — selectivity bounds from the global histogram, regions surviving
min/max elimination, the access path per step.  This module runs the
query too and joins each :class:`~repro.query.planner.StepEstimate`
with the :class:`~repro.query.executor.StepActual` the executor recorded
for the same condition, yielding the estimate-vs-actual error per step:
exactly the feedback loop that makes ``docs/cost_model.md`` calibratable
(PairwiseHist makes the same point for histogram estimates: accuracy
numbers against actuals are what justify the estimator).

The analysis run itself obeys the PR-1 invariant: step actuals are pure
reads of counters and clock frontiers, and the temporary tracer (for the
per-server utilization section) never charges simulated time — an
analyzed query costs exactly what the same query costs un-analyzed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..query.executor import QueryEngine, QueryResult, StepActual
from ..query.planner import PlanEstimate, StepEstimate, choose_strategy, estimate_plan
from ..strategies import Strategy
from .profiler import ProfileReport, profile
from .tracer import Tracer

__all__ = [
    "StepJoin",
    "QueryAnalysis",
    "analyze",
    "render_analysis",
]


@dataclass
class StepJoin:
    """One plan step's estimate next to its measured actual.

    Either side may be missing: the executor short-circuits a conjunct
    whose candidate set empties (no actual for the remaining estimates),
    and degraded plans may take steps the estimate did not foresee.
    """

    conjunct: int
    estimate: Optional[StepEstimate]
    actual: Optional[StepActual]

    @property
    def hits_in_bounds(self) -> Optional[bool]:
        """Whether measured hits landed inside the estimated bounds."""
        if self.estimate is None or self.actual is None:
            return None
        lo, hi = self.estimate.est_hits
        return lo <= self.actual.hits <= hi

    @property
    def hits_error(self) -> Optional[float]:
        """Actual hits / estimated midpoint (1.0 = spot on)."""
        if self.estimate is None or self.actual is None:
            return None
        lo, hi = self.estimate.est_hits
        mid = (lo + hi) / 2.0
        if mid <= 0.0:
            return None if self.actual.hits == 0 else float("inf")
        return self.actual.hits / mid


@dataclass
class QueryAnalysis:
    """EXPLAIN ANALYZE output for one query."""

    strategy: Strategy
    plan: PlanEstimate
    result: QueryResult
    steps: List[StepJoin] = field(default_factory=list)
    #: Per-clock utilization/skew of the analyzed run (None when no spans
    #: were recorded, e.g. a semantic-cache serve).
    profile: Optional[ProfileReport] = None
    #: Estimated seconds of every candidate strategy (AUTO resolution).
    candidates: Dict[str, float] = field(default_factory=dict)

    @property
    def est_seconds(self) -> float:
        return self.plan.est_seconds

    @property
    def actual_seconds(self) -> float:
        return self.result.elapsed_s

    @property
    def time_error(self) -> float:
        """Actual / estimated elapsed (1.0 = the cost model was exact)."""
        if self.est_seconds <= 0.0:
            return float("inf") if self.actual_seconds > 0 else 1.0
        return self.actual_seconds / self.est_seconds


def _join_steps(
    plan: PlanEstimate, actuals: Sequence[StepActual]
) -> List[StepJoin]:
    """Pair estimates and actuals per conjunct, by object name where
    possible (plan order and evaluation order can differ when the
    strategy ignores selectivity ordering), positionally otherwise."""
    est_by_c: Dict[int, List[StepEstimate]] = {}
    for e in plan.steps:
        est_by_c.setdefault(e.conjunct, []).append(e)
    act_by_c: Dict[int, List[StepActual]] = {}
    for a in actuals:
        act_by_c.setdefault(a.conjunct, []).append(a)

    joins: List[StepJoin] = []
    for ci in sorted(set(est_by_c) | set(act_by_c)):
        ests = list(est_by_c.get(ci, []))
        acts = act_by_c.get(ci, [])
        used = [False] * len(ests)
        paired: List[Tuple[Optional[StepEstimate], Optional[StepActual]]] = []
        for a in acts:
            match = None
            for i, e in enumerate(ests):
                if not used[i] and e.object_name == a.object_name:
                    match = i
                    break
            if match is None:  # positional fallback: first unused estimate
                for i in range(len(ests)):
                    if not used[i]:
                        match = i
                        break
            if match is not None:
                used[match] = True
                paired.append((ests[match], a))
            else:
                paired.append((None, a))
        for i, e in enumerate(ests):
            if not used[i]:
                paired.append((e, None))
        joins.extend(StepJoin(ci, e, a) for e, a in paired)
    return joins


def _resolve_strategy(
    system, node, strategy: Optional[Strategy]
) -> Tuple[Strategy, Dict[str, float]]:
    strat = strategy or system.strategy
    if strat is Strategy.AUTO:
        chosen, cands = choose_strategy(system, node, record=False)
        return chosen, {p.strategy.name: p.est_seconds for p in cands}
    return strat, {}


def analyze(
    system,
    node,
    engine: Optional[QueryEngine] = None,
    strategy: Optional[Strategy] = None,
    **execute_kwargs,
) -> QueryAnalysis:
    """Plan a query, execute it, and join estimates with actuals.

    The plan is estimated *before* execution (the planner's cache-aware
    read costs must see the pre-query cache state).  When the system has
    no real tracer installed, a temporary one is mounted for the run so
    the report can include per-server utilization — and removed after.
    """
    if engine is None:
        engine = QueryEngine(system)
    strat, candidates = _resolve_strategy(system, node, strategy)
    plan = estimate_plan(system, node, strat)

    own_tracer = not system.tracer.enabled
    if own_tracer:
        system.set_tracer(Tracer())
    try:
        result = engine.execute(node, strategy=strat, **execute_kwargs)
        prof = (
            profile(system.tracer, result.trace)
            if result.trace is not None else None
        )
    finally:
        if own_tracer:
            from .tracer import NOOP_TRACER

            system.set_tracer(NOOP_TRACER)

    return QueryAnalysis(
        strategy=strat,
        plan=plan,
        result=result,
        steps=_join_steps(plan, result.step_actuals),
        profile=prof,
        candidates=candidates,
    )


# ------------------------------------------------------------------ render
def _fmt_hits(j: StepJoin) -> str:
    e, a = j.estimate, j.actual
    if e is not None and a is not None:
        lo, hi = e.est_hits
        err = j.hits_error
        verdict = "within bounds" if j.hits_in_bounds else (
            f"x{err:.2f} vs midpoint" if err not in (None, float("inf"))
            else "outside bounds"
        )
        return f"est hits [{lo:.0f}, {hi:.0f}] -> actual {a.hits} ({verdict})"
    if a is not None:
        return f"actual {a.hits} hits (no matching estimate)"
    assert e is not None
    lo, hi = e.est_hits
    return f"est hits [{lo:.0f}, {hi:.0f}] -> not evaluated (short-circuit)"


def render_analysis(qa: QueryAnalysis, label: str = "QUERY") -> str:
    """The annotated plan tree: per-step estimate vs actual."""
    res = qa.result
    lines = [f"EXPLAIN ANALYZE  {label}"]
    lines.append(
        f"strategy {qa.strategy.paper_label}: estimated "
        f"{qa.est_seconds * 1e3:.3f} ms -> actual "
        f"{qa.actual_seconds * 1e3:.3f} ms (x{qa.time_error:.2f})"
    )
    if qa.candidates:
        ranked = sorted(qa.candidates.items(), key=lambda kv: kv[1])
        lines.append(
            "  AUTO candidates: "
            + ", ".join(f"{n} {v * 1e3:.3f}ms" for n, v in ranked)
        )
    for note in qa.plan.notes:
        lines.append(f"  note: {note}")
    if res.semantic_cache:
        lines.append(
            f"  served by semantic selection cache ({res.semantic_cache}): "
            f"{res.nhits} hits, no evaluation steps"
        )
    cur_conjunct = None
    for j in qa.steps:
        if j.conjunct != cur_conjunct:
            cur_conjunct = j.conjunct
            lines.append(f"conjunct[{cur_conjunct}]:")
        name = (
            j.actual.object_name if j.actual is not None
            else j.estimate.object_name  # type: ignore[union-attr]
        )
        iv = j.actual.interval if j.actual is not None else j.estimate.interval  # type: ignore[union-attr]
        lines.append(f"  {name} {iv}")
        lines.append(f"    {_fmt_hits(j)}")
        if j.estimate is not None:
            e = j.estimate
            lines.append(
                f"    plan: {e.access_path}, regions "
                f"{e.surviving_regions}/{e.total_regions} "
                f"({e.pruned_fraction * 100:.0f}% pruned), selectivity "
                f"[{e.selectivity[0] * 100:.4f}%, {e.selectivity[1] * 100:.4f}%]"
            )
        if j.actual is not None:
            a = j.actual
            lines.append(
                f"    actual: {a.access_path}, read {a.regions_read} "
                f"cached {a.regions_cached} pruned {a.regions_pruned} "
                f"idx {a.index_reads}, {a.bytes_read_virtual / 1024:.1f} KiB, "
                f"{a.elapsed_s * 1e3:.3f} ms"
            )
    lines.append(
        f"totals: {res.nhits} hits, read {res.regions_read} cached "
        f"{res.regions_cached} pruned {res.regions_pruned} idx "
        f"{res.index_reads}, {res.bytes_read_virtual / 1024:.1f} KiB"
        + (
            f", retries {res.retries}, failovers {res.failovers}"
            if res.retries or res.failovers else ""
        )
        + ("" if res.complete else "  [DEGRADED]")
    )
    if qa.profile is not None and qa.profile.tracks:
        lines.append("per-server utilization:")
        for t in qa.profile.tracks:
            lines.append(
                f"  {t.track:<10} {t.busy_s * 1e3:9.3f} ms busy "
                f"({t.utilization * 100:5.1f}%)"
            )
        if qa.profile.stragglers:
            lines.append(
                f"  imbalance ratio (max/mean server busy): "
                f"{qa.profile.imbalance_ratio:.3f}"
            )
    return "\n".join(lines)
