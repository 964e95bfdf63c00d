"""``tools/record_e2e.py`` appends machine-tagged rows to the wall-clock
ledger, and the committed ledger ``BENCH_e2e.json`` is well formed."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("record_e2e", ROOT / "tools" / "record_e2e.py")
record_e2e = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_e2e)

NINE = record_e2e.end_to_end_names()


def run_output(metrics, correct=True, failed=0):
    """What ``run.py``'s contract form prints: a table, then one JSON line."""
    line = json.dumps({
        "correct": correct, "attempted": 10, "failed": failed,
        "metrics": {name: {"value": value, "unit": "u"} for name, value in metrics.items()},
    })
    return f"service_reads seed=2020 epochs=8 latency_slots=320\n  throughput_rps_ref 1\n{line}\n"


def test_appends_a_tagged_row_with_the_nine_metrics(tmp_path):
    ledger = tmp_path / "BENCH_e2e.json"
    out = tmp_path / "run.log"
    out.write_text(run_output({name: float(i) for i, name in enumerate(NINE)}))
    for label in ("parent", "change"):
        assert record_e2e.main([
            str(out), "--workload", "service_reads", "--seed", "2020", "--seconds", "20",
            "--label", label, "--ledger", str(ledger), "--sha", "abc", "--host", "h",
        ]) == 0
    rows = json.loads(ledger.read_text())["rows"]
    assert [row["label"] for row in rows] == ["parent", "change"]
    row = rows[0]
    assert (row["sha"], row["host"], row["workload"], row["seed"], row["seconds"]) == (
        "abc", "h", "service_reads", 2020, 20.0
    )
    assert row["probe_nominal_s"] == record_e2e.probe_nominal_s() > 0
    assert row["source"] == "run"
    assert list(row["metrics"]) == NINE
    assert row["metrics"]["latency_p50_ms_ref"] == float(NINE.index("latency_p50_ms_ref"))


def test_default_tags_name_the_tree_and_the_machine():
    row = record_e2e.make_row(
        json.loads(run_output({name: 1.0 for name in NINE}).splitlines()[-1]),
        "broad_scans", 7, 5.0, "",
    )
    assert row["sha"]  # HEAD's sha, or "unknown" outside a git checkout
    assert row["host"].count("/") >= 2


def test_keeps_named_per_layer_metrics_of_a_traced_run(tmp_path):
    ledger = tmp_path / "BENCH_e2e.json"
    out = tmp_path / "run.log"
    out.write_text(run_output({"a.self_ms_per_request": 0.5, "b.calls_per_request": 2.0}))
    args = [str(out), "--workload", "w", "--seed", "1", "--seconds", "1",
            "--ledger", str(ledger), "--sha", "s", "--host", "h"]
    with pytest.raises(SystemExit, match="--keep"):
        record_e2e.main(args)
    with pytest.raises(SystemExit, match="not in this run"):
        record_e2e.main(args + ["--keep", "missing"])
    record_e2e.main(args + ["--keep", "a.self_ms_per_request"])
    (row,) = json.loads(ledger.read_text())["rows"]
    assert row["per_layer"] == {"a.self_ms_per_request": 0.5} and "metrics" not in row


@pytest.mark.parametrize("text", ["", "no json here\n", '{"metrics": {}}\n'])
def test_refuses_output_without_the_contract_line(tmp_path, text):
    with pytest.raises(SystemExit):
        record_e2e.contract_line(text)


def test_refuses_a_run_that_was_not_correct(tmp_path):
    report = json.loads(run_output({n: 1.0 for n in NINE}, correct=False, failed=3).splitlines()[-1])
    with pytest.raises(SystemExit, match="not correct"):
        record_e2e.make_row(report, "w", 1, 1.0, "", sha="s", host="h")


def test_committed_ledger_is_well_formed():
    ledger = json.loads((ROOT / "BENCH_e2e.json").read_text())
    assert ledger["rows"]
    for row in ledger["rows"]:
        for key in ("sha", "host", "probe_nominal_s", "workload", "seed", "seconds", "label", "source"):
            assert key in row, (key, row)
        assert row["source"] in ("run", "changes.md")
        assert ("metrics" in row) != ("per_layer" in row), row
        if "metrics" in row:
            assert list(row["metrics"]) == NINE, row
