"""Bench-regression gate: micro-suite determinism, tolerance matching,
and the committed baseline pin."""

import json
import os

import pytest

from repro.obs.regress import (
    DEFAULT_BASELINE,
    benchcheck,
    compare,
    load_baseline,
    run_micro_suite,
    render_comparison,
    write_baseline,
)
from repro.scenarios import demo_deployment

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


class TestMicroSuite:
    def test_deterministic(self, micro_suite):
        again = run_micro_suite()
        assert again == micro_suite  # bit-identical, not approx

    def test_covers_every_strategy(self, micro_suite):
        from repro.strategies import Strategy

        for s in Strategy:
            assert f"query.{s.name.lower()}.sim_seconds" in micro_suite
            assert micro_suite[f"query.{s.name.lower()}.sim_seconds"] > 0

    def test_all_strategies_agree_on_answer(self, micro_suite):
        _, _, truth = demo_deployment()
        # The ingest leg queries a deliberately mutated deployment, so its
        # answer differs from the pristine demo truth by design.
        nhits = {
            v
            for k, v in micro_suite.items()
            if k.endswith(".nhits") and not k.startswith("ingest.")
        }
        assert nhits == {float(truth)}

    def test_ingest_leg_pinned(self, micro_suite):
        assert micro_suite["ingest.epochs"] > 0
        assert micro_suite["ingest.hist_merges"] > 0
        assert micro_suite["ingest.index_delta_appends"] > 0
        assert micro_suite["ingest.compactions"] > 0
        assert micro_suite["ingest.post_query.nhits"] > 0
        assert micro_suite["ingest.sim_seconds"] > 0

    def test_batch_and_get_data_metrics(self, micro_suite):
        assert micro_suite["batch.sim_seconds"] > 0
        assert micro_suite["get_data.replica.sim_seconds"] > 0
        # The replica path skips reading the original object's regions.
        assert (
            micro_suite["get_data.replica.sim_seconds"]
            < micro_suite["get_data.original.sim_seconds"]
        )


class TestCompare:
    def _baseline(self, metrics, tolerances=None):
        return {"metrics": metrics, "tolerances": tolerances or {"*": 1e-9}}

    def test_statuses(self):
        base = self._baseline({"a": 1.0, "b": 2.0, "gone": 3.0})
        checks = {
            c.name: c
            for c in compare(base, {"a": 1.0, "b": 2.5, "fresh": 4.0})
        }
        assert checks["a"].status == "ok" and not checks["a"].failed
        assert checks["b"].status == "regressed" and checks["b"].failed
        assert checks["gone"].status == "missing" and checks["gone"].failed
        assert checks["fresh"].status == "new" and not checks["fresh"].failed

    def test_improvement_also_fails_the_pin(self):
        base = self._baseline({"a": 2.0})
        (c,) = compare(base, {"a": 1.0})
        assert c.status == "improved" and c.failed
        assert c.rel_delta == pytest.approx(-0.5)

    def test_tolerance_first_fnmatch_wins(self):
        base = self._baseline(
            {"query.fast.s": 1.0, "query.slow.s": 1.0, "other": 1.0},
            tolerances={"query.*": 0.5, "*": 1e-9},
        )
        checks = {
            c.name: c
            for c in compare(
                base,
                {"query.fast.s": 1.4, "query.slow.s": 1.6, "other": 1.4},
            )
        }
        # Within the loose query.* tolerance...
        assert checks["query.fast.s"].status == "ok"
        assert checks["query.fast.s"].tolerance == 0.5
        # ...beyond it...
        assert checks["query.slow.s"].status == "regressed"
        # ...and the catch-all pins everything else exactly.
        assert checks["other"].status == "regressed"
        assert checks["other"].tolerance == 1e-9

    def test_zero_baseline_requires_zero(self):
        base = self._baseline({"z": 0.0})
        (c,) = compare(base, {"z": 0.0})
        assert c.status == "ok"
        (c,) = compare(base, {"z": 1e-15})
        assert c.status == "regressed"

    def test_render_verdict_lines(self):
        base = self._baseline({"a": 1.0, "b": 1.0})
        text = render_comparison(compare(base, {"a": 1.0, "b": 2.0}))
        assert "FAIL" in text and "REGRESSED" in text
        text = render_comparison(compare(base, {"a": 1.0, "b": 1.0}))
        assert "PASS (2 metrics within tolerance)" in text


@pytest.mark.usefixtures("cached_micro_suite")
class TestBenchcheck:
    def test_creates_baseline_when_missing(self, tmp_path):
        path = tmp_path / "BENCH_t.json"
        code, text = benchcheck(baseline_path=str(path))
        assert code == 0 and "created" in text
        doc = load_baseline(str(path))
        assert len(doc["metrics"]) >= 20

    def test_second_run_passes(self, tmp_path):
        path = tmp_path / "BENCH_t.json"
        benchcheck(baseline_path=str(path))
        code, text = benchcheck(baseline_path=str(path))
        assert code == 0 and "PASS" in text

    def test_fails_on_perturbed_baseline(self, tmp_path, micro_suite):
        path = tmp_path / "BENCH_t.json"
        doctored = dict(micro_suite)
        doctored["batch.sim_seconds"] *= 1.01
        write_baseline(str(path), doctored)
        code, text = benchcheck(baseline_path=str(path))
        assert code == 1 and "FAIL" in text
        assert "batch.sim_seconds" in text

    def test_update_rewrites(self, tmp_path, micro_suite):
        path = tmp_path / "BENCH_t.json"
        doctored = dict(micro_suite)
        doctored["batch.sim_seconds"] *= 1.01
        write_baseline(str(path), doctored)
        code, text = benchcheck(baseline_path=str(path), update=True)
        assert code == 0 and "updated" in text
        code, _ = benchcheck(baseline_path=str(path))
        assert code == 0

    def test_report_artifact(self, tmp_path):
        path = tmp_path / "BENCH_t.json"
        report = tmp_path / "report.json"
        benchcheck(baseline_path=str(path))  # create
        code, _ = benchcheck(
            baseline_path=str(path), report_path=str(report)
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["failed"] == []
        assert {c["status"] for c in doc["checks"]} == {"ok"}
        assert doc["metrics"]


class TestCommittedBaseline:
    """The repo-root BENCH_microsuite.json is the first entry of the
    BENCH trajectory; current code must reproduce it exactly."""

    def test_current_code_matches_committed_numbers(self, micro_suite):
        path = os.path.join(REPO_ROOT, DEFAULT_BASELINE)
        assert os.path.exists(path), "committed baseline missing"
        checks = compare(load_baseline(path), micro_suite)
        bad = [c.name for c in checks if c.failed]
        assert not bad, f"drift vs committed baseline: {bad}"
