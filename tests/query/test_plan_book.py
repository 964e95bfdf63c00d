"""One plan book per ``execute`` / ``execute_batch`` call.

A window's semantic-cache keys and every query's execution read the same
typed conjuncts and plans; only ``AUTO``'s residency probe is
priced live, once per region set per pricing.  The window's answers and the
plans its queries run are those of each query run alone, and ``AUTO`` prices
the plans execution will run — with the query's region constraint and the
engine's knobs.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PDCError
from repro.obs import MetricsRegistry
from repro.pdc import PDCConfig, PDCSystem
from repro.query import planner
from repro.query.ast import Condition, combine_and, combine_or
from repro.query.executor import QueryEngine, QuerySpec
from repro.query.planner import PlanBook, choose_strategy, estimate_plan, plan_conjunct
from repro.query.scheduler import SelectionCache
from repro.scenarios import demo_deployment
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp

FIXED = (Strategy.FULL_SCAN, Strategy.HISTOGRAM, Strategy.HIST_INDEX, Strategy.SORT_HIST)


def cond(name, op, value):
    return Condition(name, QueryOp(op), PDCType.FLOAT, value)


def window(name, lo, hi):
    return combine_and(cond(name, ">", lo), cond(name, "<", hi))


@pytest.fixture(scope="module")
def demo():
    """The demo deployment: 8 regions per object, ``energy`` and ``x``
    indexed, a sorted replica of ``energy`` carrying ``x``, 4 servers."""
    system, _node, _truth = demo_deployment(metrics=MetricsRegistry())
    return system


def profile(res):
    """What a query's plan decides, independent of cache residency: the
    answer, the evaluation order, and per step the access path, the hits
    left, the regions pruned and the regions touched (an index probe's
    touched files depend on residency, so only their count is kept)."""
    return (
        res.selection.coords.tobytes(), res.evaluation_order, res.regions_pruned,
        res.index_reads,
        [
            (a.conjunct, a.object_name, a.access_path, a.hits, a.regions_pruned,
             a.index_reads,
             None if a.access_path == "index-probe" else a.regions_read + a.regions_cached)
            for a in res.step_actuals
        ],
    )


def assert_runs_as_alone(engine, specs, batch):
    """Every query of the window equals itself run alone, with the strategy
    ``AUTO`` resolved to in the window."""
    for i, spec in enumerate(specs):
        res = batch.results[i]
        if res is None:
            with pytest.raises(type(batch.errors[i])):
                engine.execute(spec.node, region_constraint=spec.region_constraint)
            continue
        strategy = res.strategy if res.strategy is not Strategy.AUTO else Strategy.HISTOGRAM
        alone = engine.execute(
            spec.node, strategy=strategy, region_constraint=spec.region_constraint
        )
        if res.semantic_cache:
            assert res.selection.coords.tobytes() == alone.selection.coords.tobytes()
        else:
            assert profile(res) == profile(alone), (i, spec)


class TestOneBookPerWindow:
    def test_a_window_types_plans_and_prices_each_tree_once(self, demo, monkeypatch):
        def tree(k):  # a fresh, equal object each time
            return [
                cond("energy", ">", 2.0),
                combine_and(cond("energy", ">", 1.0), cond("x", "<", 150.0)),
                combine_or(cond("energy", ">", 6.0), cond("x", "<", 3.0)),
            ][k]

        typed, planned, probes = Counter(), Counter(), []
        pricings = [0]

        def counting(name, record):
            original = getattr(planner, name)

            def wrapper(*args, **kwargs):
                record(*args, **kwargs)
                return original(*args, **kwargs)

            monkeypatch.setattr(planner, name, wrapper)

        def on_typed(node, type_of):
            typed[node] += 1

        def on_plan(system, conjunct, strategy, *plan_args):
            planned[(tuple(sorted(conjunct.items(), key=lambda kv: kv[0])), strategy)] += 1

        def on_choose(*args, **kwargs):
            pricings[0] += 1

        def on_probe(system, name, region_ids, replica="orig"):
            probes.append((pricings[0], name, replica, region_ids.tobytes()))

        counting("typed_conjuncts", on_typed)
        counting("plan_conjunct", on_plan)
        counting("choose_strategy", on_choose)
        counting("_uncached_fraction", on_probe)
        demo.drop_all_caches()
        specs = [QuerySpec(tree(i % 3), strategy=Strategy.AUTO) for i in range(8)]
        batch = QueryEngine(demo).execute_batch(specs)
        assert not batch.errors
        assert typed == Counter({tree(0): 1, tree(1): 1, tree(2): 1})
        assert planned and max(planned.values()) == 1
        assert len(probes) == len(set(probes))
        # Each AUTO miss is priced once, when it executes.
        assert pricings[0] == 8

    def test_a_standalone_execute_opens_its_own_book(self, demo, monkeypatch):
        typed = []
        original = planner.typed_conjuncts
        monkeypatch.setattr(
            planner, "typed_conjuncts", lambda *a: typed.append(1) or original(*a)
        )
        engine = QueryEngine(demo)
        node = cond("energy", ">", 2.0)
        engine.execute(node, strategy=Strategy.AUTO)
        engine.execute(node, strategy=Strategy.AUTO)
        assert len(typed) == 2

    def test_plans_are_read_only(self, demo):
        ((_, conjunct),) = PlanBook(demo).conjuncts(
            combine_and(cond("energy", ">", 2.0), cond("x", "<", 150.0))
        )
        for strategy in FIXED:
            for step in plan_conjunct(demo, conjunct, strategy).steps:
                with pytest.raises(ValueError, match="read-only"):
                    step.regions[:1] = 0
                with pytest.raises(ValueError, match="read-only"):
                    step.covered[:1] = True

    def test_equal_trees_under_other_constraints_keep_their_own_plans(self, demo):
        engine = QueryEngine(demo)
        node = window("energy", 1.0, 3.0)
        specs = [
            QuerySpec(node, strategy=s, region_constraint=c)
            for s in (Strategy.HISTOGRAM, Strategy.AUTO)
            for c in (None, (1500, 13000), (0, 2048), None)
        ]
        demo.drop_all_caches()
        assert_runs_as_alone(engine, specs, engine.execute_batch(specs))


#: Trees a window draws from: single- and multi-object, an OR, a
#: contradiction, a tail the histogram proves empty, an unknown object.
POOL = (
    window("energy", 1.0, 3.0),
    window("energy", 5.5, 9.0),
    combine_and(window("energy", 1.7, 3.9), window("x", 20.5, 240.0)),
    combine_or(window("energy", 4.0, 6.0), window("x", 250.0, 280.0)),
    window("energy", 5.0, 3.0),
    window("energy", 9.6, 12.0),
    cond("x", "<", 40.0),
    window("nope", 0.0, 1.0),
)
CONSTRAINTS = (None, (1500, 13000), (0, 2048))


class TestWindowEquivalence:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, len(POOL) - 1), st.sampled_from(CONSTRAINTS),
                st.sampled_from((Strategy.AUTO,) + FIXED),
            ),
            min_size=1, max_size=8,
        ),
        st.booleans(), st.booleans(), st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_a_window_runs_each_query_as_it_runs_alone(
        self, demo, picks, ordering, pruning, cached
    ):
        engine = QueryEngine(demo, enable_ordering=ordering, enable_pruning=pruning)
        specs = [
            QuerySpec(POOL[k], strategy=s, region_constraint=c) for k, c, s in picks
        ]
        demo.drop_all_caches()
        batch = engine.execute_batch(specs, SelectionCache() if cached else None)
        assert_runs_as_alone(engine, specs, batch)


def chosen_costs(system, engine, node, **kwargs):
    """Cold simulated seconds of ``node`` under each fixed strategy, and
    AUTO's pick with its seconds."""
    costs = {}
    for strategy in FIXED + (Strategy.AUTO,):
        system.drop_all_caches()
        res = engine.execute(node, strategy=strategy, **kwargs)
        costs[strategy] = (res.strategy, res.elapsed_s)
    return costs


@pytest.fixture(scope="module")
def skewed():
    """64 regions of 4 Ki float32, ``e`` indexed and sorted-replicated with
    ``x``."""
    rng = np.random.default_rng(7)
    system = PDCSystem(PDCConfig(n_servers=4, region_size_bytes=4096 * 4))
    system.create_object("e", np.sort(rng.gamma(2.0, 0.7, 64 * 4096)).astype(np.float32))
    system.create_object("x", (rng.random(64 * 4096) * 300).astype(np.float32))
    system.build_index("e")
    system.build_sorted_replica("e", ["x"])
    return system


class TestAutoPricesWhatRuns:
    def test_a_region_constraint_is_priced(self, skewed):
        # One region of 64: the whole-object plans made PDC-SH look cheapest.
        costs = chosen_costs(
            skewed, QueryEngine(skewed), cond("e", ">", 1.0), region_constraint=(0, 4096)
        )
        best = min(seconds for _, seconds in costs.values())
        picked, seconds = costs[Strategy.AUTO]
        assert picked is not Strategy.SORT_HIST
        assert seconds == best

    def test_pruning_off_is_priced(self, skewed):
        # A tail window: with pruning on, PDC-H reads a few regions; the
        # engine with pruning off reads them all, which AUTO must see.
        engine = QueryEngine(skewed, enable_pruning=False)
        costs = chosen_costs(skewed, engine, cond("e", ">", 6.0))
        picked, seconds = costs[Strategy.AUTO]
        assert picked is Strategy.SORT_HIST
        assert seconds == min(s for _, s in costs.values())

    def test_the_executors_pricing_equals_a_standalone_one(self, skewed):
        node = cond("e", ">", 3.0)
        args = ((0, 4096 * 17), True, False)
        book = PlanBook(skewed)
        list(book.plans(node, Strategy.HISTOGRAM, *args))  # the book is warm
        _, with_book = choose_strategy(skewed, node, False, *args, book=book)
        _, alone = choose_strategy(skewed, node, False, *args)
        assert [(p.strategy, p.est_seconds, p.notes) for p in with_book] == [
            (p.strategy, p.est_seconds, p.notes) for p in alone
        ]

    def test_each_region_set_is_probed_for_itself(self, skewed):
        # PDC-F's regions and PDC-H's survivors differ: with the survivors
        # resident and nothing else, PDC-H prices no reads and PDC-F most.
        node = cond("e", ">", 4.0)
        engine = QueryEngine(skewed)

        def estimates():
            _, candidates = choose_strategy(skewed, node, record=False)
            return {p.strategy: p.est_seconds for p in candidates}

        skewed.drop_all_caches()
        engine.execute(node, strategy=Strategy.HISTOGRAM)
        survivors_resident = estimates()
        engine.execute(node, strategy=Strategy.FULL_SCAN)
        all_resident = estimates()
        assert survivors_resident[Strategy.HISTOGRAM] == all_resident[Strategy.HISTOGRAM]
        assert survivors_resident[Strategy.FULL_SCAN] > all_resident[Strategy.FULL_SCAN]

    def test_explain_and_estimate_keep_the_whole_object(self, skewed):
        node = cond("e", ">", 1.0)
        whole = estimate_plan(skewed, node, Strategy.FULL_SCAN)
        assert whole.steps[0].surviving_regions == skewed.get_object("e").n_regions


def test_an_untypable_tree_is_an_error_every_time(demo):
    book = PlanBook(demo)
    bad = cond("nope", ">", 1.0)
    for _ in range(2):
        with pytest.raises(PDCError):
            book.conjuncts(bad)
