"""Cost-based planner: AUTO strategy selection and EXPLAIN (§IX future
work extension)."""

import numpy as np
import pytest

from repro.query.ast import Condition, combine_and
from repro.query.executor import QueryEngine
from repro.query.planner import choose_strategy, estimate_plan, explain
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp
from tests.conftest import make_system


def cond(name, op, value):
    return Condition(object_name=name, op=QueryOp(op), pdc_type=PDCType.FLOAT, value=value)


@pytest.fixture
def env(rng):
    """Clustered hot values, index + replica available."""
    sysm = make_system(region_size_bytes=1 << 11)
    n = 1 << 13
    e = rng.gamma(2.0, 0.4, n).astype(np.float32)
    e[n // 2 : n // 2 + n // 16] += 5.0
    x = (rng.random(n) * 300.0).astype(np.float32)
    sysm.create_object("energy", e)
    sysm.create_object("x", x)
    sysm.build_index("energy")
    sysm.build_index("x")
    sysm.build_sorted_replica("energy", ["x"])
    return sysm, e, x


class TestEstimates:
    def test_all_strategies_estimable(self, env):
        sysm, _, _ = env
        node = cond("energy", ">", 5.0)
        for s in (Strategy.FULL_SCAN, Strategy.HISTOGRAM, Strategy.HIST_INDEX, Strategy.SORT_HIST):
            plan = estimate_plan(sysm, node, s)
            assert plan.est_seconds > 0
            assert plan.steps

    def test_full_scan_most_expensive_cold(self, env):
        sysm, _, _ = env
        node = cond("energy", ">", 5.0)
        full = estimate_plan(sysm, node, Strategy.FULL_SCAN).est_seconds
        hist = estimate_plan(sysm, node, Strategy.HISTOGRAM).est_seconds
        assert hist < full

    def test_selectivity_bounds_recorded(self, env):
        sysm, e, _ = env
        node = cond("energy", ">", 5.0)
        plan = estimate_plan(sysm, node, Strategy.HISTOGRAM)
        lo, hi = plan.steps[0].selectivity
        truth = float((e > 5.0).mean())
        assert lo <= truth <= hi

    def test_pruned_fraction_reported(self, env):
        sysm, _, _ = env
        plan = estimate_plan(sysm, cond("energy", ">", 5.0), Strategy.HISTOGRAM)
        assert plan.steps[0].pruned_fraction > 0.5

    def test_sorted_fallback_note(self, env):
        sysm, _, _ = env
        # x is most selective → planner puts x first → sorted inapplicable.
        node = combine_and(cond("energy", ">", 0.01), cond("x", "<", 1.0))
        plan = estimate_plan(sysm, node, Strategy.SORT_HIST)
        assert any("not applicable" in n for n in plan.notes)

    def test_missing_index_noted(self, rng):
        sysm = make_system()
        sysm.create_object("energy", rng.random(1 << 12).astype(np.float32))
        plan = estimate_plan(sysm, cond("energy", ">", 0.5), Strategy.HIST_INDEX)
        assert any("index missing" in n for n in plan.notes)


class TestChooseStrategy:
    def test_selective_key_query_avoids_full_scan(self, env):
        """With accelerators available, a selective key query never plans a
        full scan (the optimized candidates may tie at tiny scale)."""
        sysm, _, _ = env
        winner, candidates = choose_strategy(sysm, cond("energy", ">", 5.2))
        assert winner is not Strategy.FULL_SCAN
        assert candidates[-1].strategy is Strategy.FULL_SCAN

    def test_candidates_sorted_cheapest_first(self, env):
        sysm, _, _ = env
        _, candidates = choose_strategy(sysm, cond("energy", ">", 5.0))
        costs = [p.est_seconds for p in candidates]
        assert costs == sorted(costs)
        assert len(candidates) == 4

    def test_without_accelerators_prefers_histogram(self, rng):
        sysm = make_system(region_size_bytes=1 << 11)
        e = rng.gamma(2.0, 0.4, 1 << 13).astype(np.float32)
        e[1000:1500] += 5.0
        sysm.create_object("energy", e)
        winner, _ = choose_strategy(sysm, cond("energy", ">", 5.0))
        assert winner is Strategy.HISTOGRAM  # no index/replica to beat it


class TestAutoExecution:
    def test_auto_gives_exact_answers(self, env):
        sysm, e, x = env
        node = combine_and(cond("energy", ">", 5.0), cond("x", "<", 150.0))
        res = QueryEngine(sysm).execute(node, strategy=Strategy.AUTO)
        truth = int(((e > 5.0) & (x < 150.0)).sum())
        assert res.nhits == truth
        assert res.strategy is not Strategy.AUTO  # resolved to a concrete one

    def test_auto_via_system_config(self, env, rng):
        from repro.pdc import PDCConfig, PDCSystem

        sysm = PDCSystem(
            PDCConfig(n_servers=2, region_size_bytes=1 << 12, strategy=Strategy.AUTO)
        )
        e = rng.random(1 << 12).astype(np.float32)
        sysm.create_object("energy", e)
        res = QueryEngine(sysm).execute(cond("energy", ">", 0.5))
        assert res.nhits == int((e > 0.5).sum())

    def test_auto_never_slower_than_worst_static(self, env):
        """AUTO's actual elapsed time lands within the static strategies'
        envelope (cold caches for everyone)."""
        sysm, _, _ = env
        node = cond("energy", ">", 5.2)
        times = {}
        for s in (Strategy.FULL_SCAN, Strategy.HISTOGRAM, Strategy.HIST_INDEX,
                  Strategy.SORT_HIST, Strategy.AUTO):
            sysm.drop_all_caches()
            times[s] = QueryEngine(sysm).execute(node, strategy=s).elapsed_s
        worst_static = max(v for k, v in times.items() if k is not Strategy.AUTO)
        assert times[Strategy.AUTO] < worst_static


class TestExplain:
    def test_explain_auto_lists_candidates(self, env):
        sysm, _, _ = env
        text = explain(sysm, cond("energy", ">", 5.0))
        assert "AUTO strategy selection" in text
        for label in ("PDC-F", "PDC-H", "PDC-HI", "PDC-SH"):
            assert label in text
        assert "->" in text

    def test_explain_specific_strategy(self, env):
        sysm, _, _ = env
        text = explain(sysm, cond("energy", ">", 5.0), Strategy.HISTOGRAM)
        assert "PDC-H" in text
        assert "pruned" in text

    def test_explain_shows_evaluation_order(self, env):
        sysm, _, _ = env
        node = combine_and(cond("x", "<", 290.0), cond("energy", ">", 5.0))
        text = explain(sysm, node, Strategy.HISTOGRAM)
        # energy is more selective: listed first despite user order.
        lines = [l for l in text.splitlines() if l.strip().startswith(("1.", "2."))]
        assert "energy" in lines[0] and "x" in lines[1]


def warm_estimates(sysm):
    """Estimates of the data-reading strategies once every region of both
    objects is resident (on whichever server the executor routes it to)."""
    QueryEngine(sysm).preload(["energy", "x"])
    node = combine_and(cond("energy", ">", 0.5), cond("x", "<", 150.0))
    return [
        estimate_plan(sysm, node, s).est_seconds
        for s in (Strategy.FULL_SCAN, Strategy.HISTOGRAM)
    ]


def all_resident_at_live_owner(sysm, name):
    obj = sysm.get_object(name)
    rids = np.arange(obj.n_regions)
    alive = sysm.alive_servers
    return all(
        alive[pos].cache.contains(f"{name}:orig:r{rid}")
        for rid, pos in zip(rids, sysm.region_owner_positions(rids))
    )


class TestResidencyFollowsLiveOwner:
    """Regression: the planner looked for region ``rid`` in
    ``servers[rid % n_servers]`` — not where the executor routes it once a
    server failed — and so priced a fully resident object as (mostly)
    cold."""

    @pytest.fixture
    def canonical_warm(self, env):
        return warm_estimates(env[0])

    @pytest.fixture
    def twin(self):
        """A second, identical deployment (same seed as ``env``)."""
        sysm = make_system(region_size_bytes=1 << 11)
        rng = np.random.default_rng(12345)
        n = 1 << 13
        e = rng.gamma(2.0, 0.4, n).astype(np.float32)
        e[n // 2 : n // 2 + n // 16] += 5.0
        sysm.create_object("energy", e)
        sysm.create_object("x", (rng.random(n) * 300.0).astype(np.float32))
        return sysm

    def test_after_fail_server(self, twin, canonical_warm):
        twin.fail_server(1)
        assert warm_estimates(twin) == canonical_warm
        assert all_resident_at_live_owner(twin, "energy")

    def test_after_recover_server(self, twin, canonical_warm):
        twin.fail_server(1)
        twin.recover_server(1)
        assert warm_estimates(twin) == canonical_warm
        assert all_resident_at_live_owner(twin, "x")

    def test_replica_regions_after_fail_server(self, env):
        from repro.query.planner import _uncached_fraction, choose_get_data_strategy

        sysm, _, _ = env
        sysm.fail_server(1)
        res = QueryEngine(sysm).execute(
            combine_and(cond("energy", ">", 5.0), cond("x", "<", 150.0)),
            strategy=Strategy.SORT_HIST,
        )
        group = sysm.replicas["energy"]
        # The companion regions the evaluation just made resident.
        run = np.flatnonzero([
            any(s.cache.contains(f"energy:sorted:x:r{rid}") for s in sysm.alive_servers)
            for rid in range(group.n_regions)
        ])
        assert run.size and _uncached_fraction(sysm, "energy", run, replica="sorted:x") == 0.0
        assert choose_get_data_strategy(sysm, "x", res.selection) is Strategy.SORT_HIST
