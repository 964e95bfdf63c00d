"""One plan per conjunct: what the plan says is what execution touches
and what AUTO prices (docs/query_lifecycle.md, "plan → charge → answer").
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.query import planner
from repro.query.ast import Condition, combine_and, combine_or, typed_conjuncts
from repro.query.executor import QueryEngine
from repro.query.planner import choose_strategy, plan_conjunct
from repro.scenarios import demo_deployment
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp

FIXED = (
    Strategy.FULL_SCAN, Strategy.HISTOGRAM, Strategy.HIST_INDEX, Strategy.SORT_HIST,
)


def cond(name, op, value):
    return Condition(
        object_name=name, op=QueryOp(op), pdc_type=PDCType.FLOAT, value=value
    )


@pytest.fixture(scope="module")
def demo():
    """The demo deployment (indexed, replica-backed, 4 servers), built once;
    tests cold-start it with ``drop_all_caches``."""
    system, _node, _truth = demo_deployment(metrics=MetricsRegistry())
    return system


def random_conjuncts(rng, n):
    """Single- and multi-object AND-groups, from broad bulk windows to tail
    windows where min/max elimination bites and windows past the data
    maximum (≈ 9.44) that the histogram proves empty."""
    out = []
    for i in range(n):
        lo = float(rng.uniform(*[(0.0, 3.0), (5.5, 9.0), (9.6, 12.0)][i % 3]))
        node = combine_and(
            cond("energy", ">", lo),
            cond("energy", "<", lo + float(rng.uniform(0.05, 2.0))),
        )
        if i % 2:
            node = combine_and(node, cond("x", "<", float(rng.uniform(1.0, 300.0))))
        out.append(node)
    return out


def snapshot(system):
    """Everything planning must leave untouched: every clock and every
    byte of the metrics exposition."""
    return (
        [(c.now, sorted(c.breakdown().items())) for c in system.all_clocks()],
        system.metrics.render(),
    )


def resident(system, name, replica="orig"):
    """Region ids of ``name`` resident on any server under ``replica``."""
    prefix = f"{name}:{replica}:r"
    return sorted(
        int(key[len(prefix):])
        for s in system.servers
        for key, _ in s.cache.entries()
        if isinstance(key, str) and key.startswith(prefix)
    )


class TestPlanIsWhatRuns:
    def test_plan_equals_execution_equals_demand(self, demo):
        system = demo
        engine = QueryEngine(system)
        rng = np.random.default_rng(2020)
        seen_paths, pruned_cases, empty_cases = set(), 0, 0
        for node in random_conjuncts(rng, 12):
            ((_, conjunct),) = typed_conjuncts(node, system.type_of)
            for strategy in FIXED:
                for constraint in (None, (1500, 13000)):
                    system.drop_all_caches()
                    before = snapshot(system)
                    plan = plan_conjunct(system, conjunct, strategy, constraint)
                    assert snapshot(system) == before

                    want = sorted(
                        (name, rid)
                        for name, rids in plan.data_regions.items()
                        for rid in rids.tolist()
                    )
                    res = engine.execute(node, strategy=strategy, region_constraint=constraint)
                    if plan.proved_empty:
                        empty_cases += 1
                        assert want == [] and res.step_actuals == [] and res.nhits == 0
                        continue
                    first, actual = plan.steps[0], res.step_actuals[0]
                    seen_paths.add(first.path)
                    assert res.evaluation_order == [s.name for s in plan.steps]
                    assert actual.access_path == first.path
                    if first.path == "binary-search-run":
                        # The run is located by the search, not by the plan;
                        # nothing here is a data region.
                        assert want == []
                        continue
                    pruned_cases += bool(first.pruned)
                    assert actual.regions_pruned == first.pruned
                    regions = first.regions.tolist()
                    if first.path == "index-probe":
                        assert want == []
                        assert actual.index_reads == len(regions)
                        assert resident(system, first.name, "idx") == regions
                    else:
                        assert actual.regions_read + actual.regions_cached == len(regions)
                        assert resident(system, first.name) == regions
                        assert [rid for name, rid in want if name == first.name] == regions
        assert seen_paths == {
            "full-read+scan", "pruned-read+scan", "index-probe", "binary-search-run",
        }
        assert pruned_cases and empty_cases

    def test_full_scan_demand_covers_every_object(self, demo):
        """PDC-F's plan pre-loads every region of every queried object."""
        node = combine_and(cond("energy", ">", 2.0), cond("x", "<", 150.0))
        ((_, conjunct),) = typed_conjuncts(node, demo.type_of)
        plan = plan_conjunct(demo, conjunct, Strategy.FULL_SCAN)
        assert sorted(plan.data_regions) == ["energy", "x"]
        for name, rids in plan.data_regions.items():
            assert rids.tolist() == list(range(demo.get_object(name).n_regions))

    def test_choose_strategy_plans_each_conjunct_once(self, demo, monkeypatch):
        calls = {"order": 0, "prune": 0, "every region": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def surviving(obj, interval, constraint=None, prune=True):
            # PDC-F's own plan lists every region, pruning nothing.
            calls["prune" if prune else "every region"] += 1
            return original(obj, interval, constraint, prune)

        original = planner.surviving_regions
        monkeypatch.setattr(planner, "order_by_selectivity",
                            counting("order", planner.order_by_selectivity))
        monkeypatch.setattr(planner, "surviving_regions", surviving)
        # Two conjuncts, three conditions; the second one puts x first, so
        # PDC-SH has no applicable replica and falls back to the PDC-H
        # estimate — which must be reused, not re-planned.
        node = combine_or(
            cond("energy", ">", 3.0),
            combine_and(cond("energy", ">", 0.1), cond("x", "<", 5.0)),
        )
        _winner, candidates = choose_strategy(demo, node, record=False)
        assert len(candidates) == 4
        assert calls == {"order": 2, "prune": 3, "every region": 3}
        sh = next(p for p in candidates if p.strategy is Strategy.SORT_HIST)
        h = next(p for p in candidates if p.strategy is Strategy.HISTOGRAM)
        assert sh.notes and sh.est_seconds == h.est_seconds


@pytest.mark.xfail(
    strict=True,
    reason="known defect: sorted-replica reads count regions_read but not "
    "bytes_read_virtual; fixing it moves virtual_bytes_read_per_request and "
    "query.sort_hist.bytes_virtual, so it waits for a re-baselining PR "
    "(ROADMAP item 1)",
)
def test_cold_sort_hist_reports_the_bytes_it_reads():
    system, node, _truth = demo_deployment(metrics=MetricsRegistry())
    res = QueryEngine(system).execute(node, strategy=Strategy.SORT_HIST)
    assert res.regions_read > 0
    assert res.bytes_read_virtual > 0.0
