"""EXPLAIN ANALYZE: estimate/actual joins, the zero-cost invariant of an
analyzed run, and the shared-pass attribution its actuals build on."""

import pytest

from repro.obs import NOOP_TRACER
from repro.obs.analyze import analyze, render_analysis
from repro.query.ast import Condition
from repro.query.executor import QueryEngine
from repro.query.scheduler import QueryScheduler
from repro.scenarios import demo_deployment
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp


@pytest.fixture
def deployment():
    return demo_deployment()


class TestAnalyzeSingle:
    def test_joins_every_conjunct_step(self, deployment):
        system, node, truth = deployment
        qa = analyze(system, node, strategy=Strategy.HISTOGRAM)
        assert qa.strategy is Strategy.HISTOGRAM
        assert qa.result.nhits == truth
        assert qa.steps, "no StepJoins produced"
        # The demo query is one conjunct over two objects; both steps
        # must carry estimate AND actual.
        both = [
            j for j in qa.steps
            if j.estimate is not None and j.actual is not None
        ]
        assert {j.estimate.object_name for j in both} == {"energy", "x"}
        assert all(j.conjunct == 0 for j in qa.steps)

    def test_actual_hits_are_cumulative_survivors(self, deployment):
        system, node, truth = deployment
        qa = analyze(system, node, strategy=Strategy.HISTOGRAM)
        hits = [j.actual.hits for j in qa.steps if j.actual is not None]
        # Conjunct evaluation only narrows the candidate set.
        assert hits == sorted(hits, reverse=True)
        assert hits[-1] == truth

    def test_hits_error_and_bounds(self, deployment):
        system, node, truth = deployment
        qa = analyze(system, node, strategy=Strategy.HISTOGRAM)
        for j in qa.steps:
            if j.estimate is None or j.actual is None:
                continue
            assert j.hits_error is not None and j.hits_error > 0
            lo, hi = j.estimate.est_hits
            assert 0 <= lo <= hi
            if j.hits_in_bounds:
                assert lo <= j.actual.hits <= hi

    def test_analysis_does_not_change_simulated_cost(self):
        # The PR-1 invariant, end to end: the analyzed run must cost
        # bit-identically what the same query costs un-analyzed.
        system, node, truth = demo_deployment()
        plain = QueryEngine(system).execute(node, strategy=Strategy.SORT_HIST)
        system2, node2, _ = demo_deployment()
        qa = analyze(system2, node2, strategy=Strategy.SORT_HIST)
        assert qa.result.elapsed_s == plain.elapsed_s
        assert qa.result.bytes_read_virtual == plain.bytes_read_virtual
        assert qa.result.nhits == plain.nhits == truth

    def test_temporary_tracer_removed(self, deployment):
        system, node, _ = deployment
        assert not system.tracer.enabled
        qa = analyze(system, node, strategy=Strategy.FULL_SCAN)
        assert system.tracer is NOOP_TRACER
        # ...yet the report still profiled the run through the temp one.
        assert qa.profile is not None and qa.profile.span_count > 0

    def test_auto_resolves_and_reports_candidates(self, deployment):
        system, node, _ = deployment
        qa = analyze(system, node, strategy=Strategy.AUTO)
        assert qa.strategy is not Strategy.AUTO
        assert len(qa.candidates) >= 4
        best = min(qa.candidates.values())
        assert qa.plan.est_seconds == pytest.approx(best)

    def test_profile_covers_servers(self, deployment):
        system, node, _ = deployment
        qa = analyze(system, node, strategy=Strategy.FULL_SCAN)
        tracks = {t.track for t in qa.profile.tracks}
        assert any(t.startswith("server") for t in tracks)
        assert qa.profile.imbalance_ratio >= 1.0

    def test_time_error_positive_finite(self, deployment):
        system, node, _ = deployment
        qa = analyze(system, node, strategy=Strategy.HIST_INDEX)
        assert 0 < qa.time_error < float("inf")
        assert qa.actual_seconds == pytest.approx(qa.result.elapsed_s)

    def test_render_mentions_estimates_and_servers(self, deployment):
        system, node, _ = deployment
        text = render_analysis(
            analyze(system, node, strategy=Strategy.AUTO), label="demo"
        )
        assert "EXPLAIN ANALYZE  demo" in text
        assert "est hits [" in text and "-> actual" in text
        assert "AUTO candidates:" in text
        assert "per-server utilization:" in text
        assert "imbalance ratio" in text


class TestAnalyzeBatch:
    """A window's queries answer as they do alone."""

    @pytest.fixture
    def window(self):
        return [
            Condition("energy", QueryOp.GT, PDCType.FLOAT, t)
            for t in (0.5, 1.0, 1.5, 2.0)
        ]

    @staticmethod
    def run_window(system, window):
        sched = QueryScheduler(system, max_width=len(window))
        results = sched.run(window)
        sched.close()
        return sched.batches[0], results

    def test_batch_answers_match_solo_runs(self, window):
        solo = []
        for node in window:
            system, _, _ = demo_deployment()
            solo.append(QueryEngine(system).execute(node).nhits)
        system, _, _ = demo_deployment()
        _, results = self.run_window(system, window)
        assert [r.nhits for r in results] == solo
