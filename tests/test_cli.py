"""The ``python -m repro`` command-line interface."""

import subprocess
import sys

import pytest

from repro.__main__ import main


class TestInProcess:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "PDC-Query" in out
        assert "PDC-SH" in out
        assert "tiny" in out and "full" in out

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "selftest: PASS" in out
        assert out.count("ok") == 5  # five strategies

    def test_fig3_tiny_one_size(self, capsys):
        assert main(["fig3", "--scale", "tiny", "--region-sizes", "32"]) == 0
        out = capsys.readouterr().out
        assert "Fig 3" in out and "PDC-SH" in out

    def test_index_size(self, capsys):
        assert main(["index-size", "--scale", "tiny"]) == 0
        assert "Index size" in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig3", "--scale", "gigantic"])


class TestExplainAnalyze:
    def test_explain_plain(self, capsys):
        assert main(["explain", "multi"]) == 0
        out = capsys.readouterr().out
        assert "evaluation steps" in out
        assert "est hits [" in out
        assert "selectivity" in out

    def test_explain_strategy_override(self, capsys):
        assert main(["explain", "multi", "--strategy", "full_scan"]) == 0
        assert "PDC-F" in capsys.readouterr().out

    def test_explain_analyze(self, capsys):
        assert main(["explain", "multi", "--analyze"]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE  multi" in out
        assert "est hits [" in out and "-> actual" in out
        assert "per-server utilization:" in out
        assert "imbalance ratio" in out

    def test_unknown_demo_query_rejected(self):
        with pytest.raises(SystemExit):
            main(["explain", "nonsense"])


class TestProfileCommand:
    def test_profile_demo_query(self, capsys):
        assert main(["profile", "multi"]) == 0
        out = capsys.readouterr().out
        assert "per-clock utilization:" in out
        assert "critical path" in out
        assert "imbalance ratio" in out

    def test_profile_exports(self, capsys, tmp_path):
        import json

        flame = tmp_path / "flame.collapsed"
        scope = tmp_path / "prof.json"
        assert main([
            "profile", "multi", "--strategy", "sort_hist",
            "--flamegraph", str(flame), "--speedscope", str(scope),
        ]) == 0
        lines = flame.read_text().splitlines()
        assert lines and all(
            int(line.rsplit(" ", 1)[1]) > 0 for line in lines
        )
        doc = json.loads(scope.read_text())
        assert doc["profiles"] and doc["shared"]["frames"]

    def test_profile_saved_trace(self, capsys, tmp_path):
        chrome = tmp_path / "t.json"
        jsonl = tmp_path / "t.jsonl"
        assert main([
            "trace", "multi", "--out", str(chrome), "--jsonl", str(jsonl),
        ]) == 0
        capsys.readouterr()
        assert main(["profile", "--load", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "per-clock utilization:" in out and "critical path" in out


@pytest.mark.usefixtures("cached_micro_suite")
class TestBenchcheckCommand:
    def test_create_then_pass(self, capsys, tmp_path):
        baseline = tmp_path / "BENCH_t.json"
        assert main(["benchcheck", "--baseline", str(baseline)]) == 0
        assert "created" in capsys.readouterr().out
        assert main(["benchcheck", "--baseline", str(baseline)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_report_flag(self, capsys, tmp_path):
        import json

        baseline = tmp_path / "BENCH_t.json"
        report = tmp_path / "report.json"
        main(["benchcheck", "--baseline", str(baseline)])
        assert main([
            "benchcheck", "--baseline", str(baseline),
            "--report", str(report),
        ]) == 0
        assert json.loads(report.read_text())["failed"] == []


class TestOutputPathErrors:
    """Every flag that names an output file: an unwritable path is a
    one-line ``error:`` and exit code 2, never a traceback."""

    @pytest.mark.usefixtures("cached_micro_suite")
    @pytest.mark.parametrize(
        "argv",
        [
            ["selftest", "--trace"],
            ["trace", "simple", "--out"],
            ["trace", "simple", "--out", "{ok}", "--jsonl"],
            ["profile", "simple", "--flamegraph"],
            ["profile", "simple", "--speedscope"],
            ["benchcheck", "--baseline"],
            ["benchcheck", "--baseline", "{ok}", "--report"],
            ["monitor", "--requests", "30", "--openmetrics"],
            ["monitor", "--requests", "30", "--series"],
            ["monitor", "--requests", "30", "--alerts"],
        ],
        ids=lambda argv: " ".join(a for a in argv if not a.startswith("{")),
    )
    def test_missing_directory_exits_2(self, argv, capsys, tmp_path):
        argv = [a.format(ok=tmp_path / "ok.out") for a in argv]
        code = main(argv + [str(tmp_path / "no_such_dir" / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.err
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1


DEMOS = [
    (["faults", "--seed", "1234"], "faults demo: PASS"),
    (["batch", "--queries", "4"], "batched:        64.0 KiB read"),
    (["metrics"], "# TYPE pdc_query_sim_seconds histogram"),
    (["serve", "--requests", "12"], "query-service demo: 12 requests"),
    (["monitor", "--requests", "30"], "alert fingerprint: "),
    (["selftest", "--report"], "selftest: PASS"),
]


class TestDemos:
    """The demo subcommands print their scenario and exit 0; the contracts
    they illustrate are gated by each subsystem's own tests and pins."""

    @pytest.mark.parametrize(
        "argv, marker", DEMOS, ids=[" ".join(argv) for argv, _ in DEMOS]
    )
    def test_demo_runs(self, argv, marker, capsys):
        assert main(argv) == 0
        assert marker in capsys.readouterr().out


class TestBadInput:
    """A bad value is a usage error naming the argument (or a one-line
    ``error:`` for a bad input file): exit 2, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig3", "--scale", "tiny", "--region-sizes", "abc"],
            ["fig3", "--scale", "tiny", "--region-sizes", "4,,8"],
            ["serve", "--rate", "0"],
            ["serve", "--rate", "-5"],
            ["batch", "--width", "0"],
            ["monitor", "--requests", "30", "--watch", "--step", "0"],
            ["serve", "--requests", "-1"],
            ["monitor", "--requests", "0"],
            ["batch", "--queries", "-1"],
            ["faults", "--timeout", "0"],
            ["faults", "--timeout", "nan"],
            ["faults", "--timeout", "inf"],
        ],
        ids=" ".join,
    )
    def test_bad_value_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "Traceback" not in err
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert f"argument {argv[-2]}" in err.splitlines()[-1]

    @pytest.mark.parametrize(
        "content",
        ["not json\n", '{"a": 1}\n', "[1, 2]\n"],
        ids=["not-json", "not-a-trace-record", "not-an-object"],
    )
    def test_profile_load_rejects_non_trace_file(self, content, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(content)
        assert main(["profile", "--load", str(path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"error: {path}: not a JSONL trace")
        assert len(err.splitlines()) == 1

    def test_profile_load_rejects_empty_trace(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["profile", "--load", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: trace has no spans\n"


class TestSubprocess:
    def test_module_entrypoint(self):
        res = subprocess.run(
            [sys.executable, "-m", "repro", "info"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert res.returncode == 0
        assert "PDC-Query" in res.stdout
