#!/usr/bin/env python3
"""The repo benchmark: four workloads, end-to-end and per-layer metrics.

    python benchmarks/e2e/run.py                      # whole suite, both tables
    python benchmarks/e2e/run.py --workload NAME      # one workload, both tables
    python benchmarks/e2e/run.py --quick              # smoke run (< 30 s), marked quick
    python benchmarks/e2e/run.py --selfcheck          # suite twice, compared with the bounds
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The last form is the contract of ``BENCHMARK.json``: one measured run whose
last output line is ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
Each workload is measured in a child process (``worker.py``), one at a time.
README.md explains the names, the method and how the metrics interact.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
RESULTS = os.path.join(HERE, "results")
QUICK_TAG = " [quick: not comparable with full runs]"

#: Metrics whose value is fixed by the seed alone (no clock involved).
EXACT = ("sim_s_per_request", "virtual_bytes_read_per_request", "storage_amplification",
         "success_fraction")
#: Normalised timing metric -> the un-normalised host diagnostic beside it.
RAW_TWIN = {
    "throughput_rps_ref": "host.raw_throughput_rps",
    "latency_p50_ms_ref": "host.raw_latency_p50_ms",
    "latency_p95_ms_ref": "host.raw_latency_p95_ms",
    "setup_s": "host.raw_setup_s",
}


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    """Run one child to completion and return its report."""
    os.makedirs(RESULTS, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    if trace:
        cmd += ["--trace-out", os.path.join(RESULTS, f"trace_{workload}.jsonl")]
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PDC_QUERY_STRATEGY", None)  # every request names its strategy
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload}: measurement process exited {proc.returncode} without a report")
    report = json.loads(lines[-1])
    report["exit_code"] = proc.returncode
    return report


def with_units(values: dict, declared: list) -> dict:
    """Contract form of a metric table; refuses a missing or extra name."""
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        sys.exit(f"metric names differ from BENCHMARK.json: {sorted(set(names) ^ set(values))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def print_table(title: str, rows: dict) -> None:
    print(title)
    for name, cell in rows.items():
        print(f"  {name:<46} {cell['value']:>16.6g} {cell['unit']}")


def contract_run(args) -> int:
    bench = spec()
    report = measure(args.workload, args.seed, args.seconds, args.trace, args.quick)
    if args.trace:
        metrics = with_units(report["per_layer"], bench["per_layer"])
    else:
        metrics = with_units(report["end_to_end"], bench["end_to_end"])
    print_table(f"{args.workload} seed={args.seed} epochs={report['epochs']} "
                f"latency_slots={report['latency_slots']}{QUICK_TAG if args.quick else ''}",
                metrics)
    print(json.dumps({
        "correct": bool(report["correct"]), "attempted": int(report["attempted"]),
        "failed": int(report["failed"]), "metrics": metrics,
    }))
    return 0 if report["correct"] else 1


def suite(args, label: str) -> dict:
    """Untraced then traced run of every selected workload."""
    bench = spec()
    names = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    out = {"mode": "quick" if args.quick else "full", "seed": args.seed, "workloads": {}}
    for name in names:
        if args.quick:  # both tables from one child, to stay under 30 s
            plain = traced = measure(name, args.seed, args.seconds, 1, True)
        else:
            plain = measure(name, args.seed, args.seconds, 0, False)
            traced = measure(name, args.seed, args.seconds, 1, False)
        out["workloads"][name] = {"untraced": plain, "traced": traced}
        print_table(f"\n== {name} ({label}) seed={args.seed} epochs={plain['epochs']} "
                    f"latency_slots={plain['latency_slots']}{QUICK_TAG if args.quick else ''}"
                    "\n-- end to end",
                    with_units(plain["end_to_end"], bench["end_to_end"]))
        print_table("-- per layer (traced run)", with_units(traced["per_layer"], bench["per_layer"]))
    out["correct"] = all(r["correct"] for w in out["workloads"].values() for r in w.values())
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{out['mode']}_seed{args.seed}_{label}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
    print(f"\n[{label}] correct={out['correct']} -> {os.path.relpath(path, ROOT)}")
    return out


def selfcheck(args) -> int:
    """Two back-to-back suites must agree within the declared bounds."""
    bench = spec()
    first, second = suite(args, "run1"), suite(args, "run2")
    breaches = []
    print("\n== selfcheck: run2 against run1 (relative difference | bound | raw twin's difference)")
    for name in first["workloads"]:
        a, b = first["workloads"][name], second["workloads"][name]
        for m in bench["end_to_end"]:
            va, vb = a["untraced"]["end_to_end"][m["name"]], b["untraced"]["end_to_end"][m["name"]]
            diff = abs(vb - va) / abs(va)
            twin = RAW_TWIN.get(m["name"])
            raw = ""
            if twin:
                ra, rb = a["untraced"]["host"][twin], b["untraced"]["host"][twin]
                raw = f"raw {abs(rb - ra) / abs(ra):8.4f}"
            limit = 0.0 if m["name"] in EXACT else m["bound"]
            ok = diff <= limit
            print(f"  {name:<16} {m['name']:<32} {va:>14.6g} {vb:>14.6g} "
                  f"{diff:8.4f} | {limit:<6g} {raw} {'ok' if ok else 'BREACH'}")
            if not ok:
                breaches.append(f"{name}.{m['name']}")
        for key in ("py.calls_per_request", "py.c_calls_per_request"):
            if a["traced"]["per_layer"][key] != b["traced"]["per_layer"][key]:
                breaches.append(f"{name}.{key}")
        if a["untraced"]["fingerprint"] != b["untraced"]["fingerprint"]:
            breaches.append(f"{name}.fingerprint")
        for run in (a, b):
            if not (run["untraced"]["exact_repeat"] and run["traced"]["exact_repeat"]):
                breaches.append(f"{name}.exact_repeat_across_epochs")
    correct = first["correct"] and second["correct"]
    print(f"\nselfcheck: {'PASS' if correct and not breaches else 'FAIL'}"
          + (f" breaches: {', '.join(breaches)}" if breaches else ""))
    return 0 if correct and not breaches else 1


def main(argv=None) -> int:
    bench = spec()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=lambda text: int(text) % (1 << 64), default=2020,
                    help="any integer; numpy seeds are non-negative, so it is taken mod 2**64")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"],
                    help="measuring budget of one run; never fewer than 8 epochs")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="with --workload: one contract run, untraced (0) or traced (1)")
    ap.add_argument("--quick", action="store_true",
                    help="2 epochs, 200 slots, eighth-size arrays; a smoke run")
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"benchmark needs the program's source under {os.path.join(ROOT, 'src')}")
    if args.selfcheck:
        return selfcheck(args)
    if args.workload and args.trace is not None:
        return contract_run(args)
    return 0 if suite(args, "run")["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
