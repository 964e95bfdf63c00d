"""Append one machine-tagged row to ``BENCH_e2e.json``: the wall-clock trajectory.

    python3 benchmarks/e2e/run.py --workload service_reads --seed 2020 --seconds 20 --trace 0 > run.log
    python tools/record_e2e.py run.log --workload service_reads --seed 2020 --seconds 20 --label change

The run's output (a file, or ``-`` for stdin) must end with ``run.py``'s
contract line ``{"correct", "attempted", "failed", "metrics"}``.  An untraced
run (``--trace 0``) gives the nine end-to-end metrics of ``BENCHMARK.json``,
all of them; a traced run (``--trace 1``) gives per-layer metrics, of which
only those named with ``--keep`` are recorded.  A run that was not correct is
refused.  Each row carries the git sha of the measured tree (``+dirty`` when
it has uncommitted changes), a host tag, the benchmark's ``PROBE_NOMINAL_S``,
the seed and the measuring budget.  Rows from different hosts are listed side
by side and never compared.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
LEDGER = ROOT / "BENCH_e2e.json"
PROBE = ROOT / "benchmarks" / "e2e" / "probe.py"
ABOUT = (
    "Wall-clock trajectory of the repo benchmark (BENCHMARK.json), one row per "
    "measured run or quoted statistic; tools/record_e2e.py appends rows.  Rows "
    "with different host tags are never compared.  'source': 'changes.md' rows "
    "are numbers quoted in CHANGES.md / ROADMAP.md before the ledger existed "
    "(null where not quoted)."
)


def end_to_end_names() -> list:
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def probe_nominal_s() -> float:
    match = re.search(r"^PROBE_NOMINAL_S = ([0-9.eE+-]+)$", PROBE.read_text(), re.M)
    if match is None:
        raise SystemExit(f"no PROBE_NOMINAL_S literal in {PROBE}")
    return float(match.group(1))


def host_tag() -> str:
    """Architecture, CPU count and CPU model: the same on every container of
    one machine type, unlike a container's host name."""
    model = "unknown-cpu"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"{platform.machine()}/{os.cpu_count()}cpu/{model}"


def git_sha() -> str:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()

    sha = git("rev-parse", "HEAD") or "unknown"
    return sha + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def contract_line(text: str) -> dict:
    """The JSON object on the last non-empty line of a run's output."""
    lines = [line for line in text.splitlines() if line.strip()]
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit("the run's output does not end with run.py's JSON line") from None
    if not isinstance(report, dict) or not {"correct", "failed", "metrics"} <= set(report):
        raise SystemExit("the last line is not run.py's contract line")
    return report


def make_row(report: dict, workload: str, seed: int, seconds: float, label: str,
             keep=(), sha=None, host=None) -> dict:
    if not report["correct"] or report["failed"]:
        raise SystemExit(f"refusing a run that was not correct ({report['failed']} failed)")
    values = {name: cell["value"] for name, cell in report["metrics"].items()}
    row = {
        "sha": sha or git_sha(),
        "host": host or host_tag(),
        "probe_nominal_s": probe_nominal_s(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "label": label,
        "source": "run",
        "recorded": datetime.date.today().isoformat(),
    }
    names = end_to_end_names()
    if set(values) == set(names):
        row["metrics"] = {name: values[name] for name in names}
    else:
        missing = [name for name in keep if name not in values]
        if not keep or missing:
            raise SystemExit(
                "not the nine end-to-end metrics; name per-layer metrics of a traced run "
                f"with --keep (not in this run: {missing})"
            )
        row["per_layer"] = {name: values[name] for name in keep}
    return row


def append(row: dict, path: pathlib.Path = LEDGER) -> None:
    ledger = json.loads(path.read_text()) if path.exists() else {"about": ABOUT, "rows": []}
    ledger["rows"].append(row)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1) + "\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("output", help="file holding run.py's output, or - for stdin")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--label", default="", help="what was measured, e.g. 'parent' or 'change'")
    ap.add_argument("--keep", action="append", default=[], metavar="NAME",
                    help="a per-layer metric of a traced run to record (repeatable)")
    ap.add_argument("--sha", help="the measured tree's sha (default: this checkout's)")
    ap.add_argument("--host", help="host tag (default: architecture/CPUs/CPU model)")
    ap.add_argument("--ledger", type=pathlib.Path, default=LEDGER)
    args = ap.parse_args(argv)
    text = sys.stdin.read() if args.output == "-" else pathlib.Path(args.output).read_text()
    row = make_row(contract_line(text), args.workload, args.seed, args.seconds, args.label,
                   args.keep, args.sha, args.host)
    append(row, args.ledger)
    print(f"appended {args.workload} seed={args.seed} ({args.label or 'no label'}) to {args.ledger}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
