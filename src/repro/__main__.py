"""Command-line interface: ``python -m repro <command>``.

Gives the open-source release a zero-code entry point:

* ``python -m repro fig3|fig4|fig5|fig6|index-size`` — regenerate a paper
  figure's table at a chosen scale;
* ``python -m repro all`` — every figure;
* ``python -m repro selftest`` — a fast end-to-end sanity check (all
  strategies vs ground truth on fresh synthetic data); ``--report``
  additionally prints the deployment status report, ``--trace FILE``
  writes a Chrome trace of the run;
* ``python -m repro trace <demo-query> --out trace.json`` — run one demo
  query with tracing enabled and export a Perfetto-loadable timeline;
* ``python -m repro metrics`` — run a demo workload and print the metrics
  registry in Prometheus text exposition format;
* ``python -m repro faults`` — run the demo workload under deterministic
  fault injection (PFS read errors, stragglers, server crashes) and
  report retries, failovers, and degraded results;
* ``python -m repro batch`` — batching demo: bytes read by a window of
  overlapping queries, isolated vs batched;
* ``python -m repro explain <demo-query>`` — the planner's plan
  (evaluation order, selectivity, access paths); ``--analyze``
  additionally runs the query and annotates each step with measured
  actuals (EXPLAIN ANALYZE);
* ``python -m repro profile <demo-query>`` — per-server utilization,
  imbalance/straggler ranking, critical path, and flamegraph export
  (collapsed stacks / speedscope);
* ``python -m repro benchcheck`` — run the deterministic micro-suite and
  fail on any drift from the committed ``BENCH_*.json`` baseline;
* ``python -m repro serve`` — multi-tenant query-service demo: open-loop
  seeded arrivals through admission control and fair-share dispatch, with
  a per-tenant SLO table;
* ``python -m repro info`` — version, scale presets, strategy list.
"""

from __future__ import annotations

import argparse
import math
import sys

from .scenarios import (
    demo_deployment,
    demo_monitor_run,
    demo_serve_run,
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _mb_list(text: str) -> list:
    """Comma-separated region sizes in MB -> bytes."""
    from .types import MB

    return [_positive_int(part) * MB for part in text.split(",")]


def _add_scale_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--scale",
        choices=("tiny", "small", "full"),
        default="small",
        help="benchmark scale preset (default: small)",
    )


def cmd_figures(args: argparse.Namespace) -> int:
    from .bench.figures import run_fig3, run_fig4, run_fig5, run_fig6, run_index_size
    from .bench.harness import SCALES

    scale = SCALES[args.scale]
    which = args.command
    if which in ("fig3", "all"):
        sizes = args.region_sizes
        run_fig3(scale, **({"region_sizes": sizes} if sizes else {}))
    if which in ("fig4", "all"):
        run_fig4(scale)
    if which in ("fig5", "all"):
        run_fig5(scale)
    if which in ("fig6", "all"):
        run_fig6(scale)
    if which in ("index-size", "all"):
        run_index_size(scale)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Multi-tenant query-service demo: open-loop seeded arrivals against
    the demo deployment under ``wfq`` dispatch, per-tenant SLO table out."""
    run = demo_serve_run(
        seed=args.seed, requests=args.requests, rate_qps=args.rate,
        batch_window=args.window,
    )
    print(f"query-service demo: {args.requests} requests, policy "
          f"wfq, window {args.window}, seed {args.seed}")
    print(f"  {'tenant':<12} {'admit':>6} {'rej':>4} {'shed':>5} "
          f"{'done':>5} {'degr':>5} {'t/o':>4} {'avg wait ms':>12} "
          f"{'max wait ms':>12}")
    for name, st in sorted(run.service.stats.items()):
        avg_wait = st.queue_wait_total_s / st.dispatched if st.dispatched else 0.0
        print(f"  {name:<12} {st.admitted:>6} "
              f"{st.rejected_rate + st.rejected_queue:>4} {st.shed:>5} "
              f"{st.done:>5} {st.degraded:>5} {st.timed_out:>4} "
              f"{avg_wait * 1e3:>12.3f} {st.queue_wait_max_s * 1e3:>12.3f}")
    hung = [t for t in run.tickets if not t.finished]
    if hung:
        print(f"  {len(hung)} requests left non-terminal  FAIL")
        return 1
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    """Continuous-telemetry demo: run the deterministic overload scenario,
    print the per-tenant SLO/burn status table, optionally replay the run
    frame by frame (``--watch``) and export OpenMetrics/JSONL artifacts."""
    from .obs.export import (
        render_openmetrics,
        replay_frames,
        write_alerts_jsonl,
    )

    run = demo_monitor_run(seed=args.seed, requests=args.requests)
    mon = run.monitor
    print(f"monitor demo: {args.requests} requests, seed {args.seed}, "
          f"{run.t_end * 1e3:.3f} simulated ms, "
          f"{len(run.alerts)} alert transitions")
    if args.watch:
        for frame in replay_frames(
            mon.recorder, run.alerts, step_s=args.step
        ):
            print(frame)
        print()
    print(mon.render_status(run.t_end))
    if run.alerts:
        print("alert stream:")
        for a in run.alerts:
            print(f"  {a.t_s * 1e3:9.3f} ms  {a.kind.upper():<5} "
                  f"{a.slo} [{a.window}] burn={a.burn_rate:.2f} "
                  f"budget_used={a.budget_used * 100:.1f}%")
    print(f"alert fingerprint: {mon.fingerprint()}")
    if args.openmetrics:
        with open(args.openmetrics, "w", encoding="utf-8") as f:
            f.write(
                render_openmetrics(
                    registry=run.system.metrics,
                    recorder=mon.recorder,
                    slo_monitor=mon.slo,
                    t_end=run.t_end,
                ) + "\n"
            )
        print(f"openmetrics exposition -> {args.openmetrics}")
    if args.series:
        mon.recorder.write_jsonl(args.series)
        print(f"{mon.recorder.total_samples()} samples -> {args.series}")
    if args.alerts:
        write_alerts_jsonl(run.alerts, args.alerts)
        print(f"{len(run.alerts)} alert records -> {args.alerts}")
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    """Compare a window of overlapping queries run isolated vs batched."""
    from .query.ast import Condition
    from .query.executor import QueryEngine
    from .query.scheduler import QueryScheduler
    from .types import PDCType, QueryOp

    n_queries = args.queries
    thresholds = [0.25 + 0.25 * i for i in range(n_queries)]
    queries = [
        Condition("energy", QueryOp.GT, PDCType.FLOAT, t) for t in thresholds
    ]

    isolated_bytes = 0.0
    isolated_s = 0.0
    for q in queries:
        system, _, _ = demo_deployment()
        res = QueryEngine(system).execute(q)
        isolated_bytes += res.bytes_read_virtual
        isolated_s += res.elapsed_s

    system, _, _ = demo_deployment()
    sched = QueryScheduler(system, max_width=args.width)
    results = sched.run(queries)
    batched_bytes = sum(b.total_bytes_read_virtual for b in sched.batches)
    sched.close()

    print(f"batching demo ({n_queries} overlapping queries, "
          f"window {args.width})")
    print(f"  isolated: {isolated_bytes / 1024:10.1f} KiB read, "
          f"{isolated_s * 1e3:8.2f} simulated ms")
    print(f"  batched:  {batched_bytes / 1024:10.1f} KiB read, "
          f"{sum(b.elapsed_s for b in sched.batches) * 1e3:8.2f} simulated ms")
    print(f"  answers: {[r.nhits for r in results]}")
    return 0 if batched_bytes <= isolated_bytes else 1


def cmd_selftest(args: argparse.Namespace) -> int:
    from .obs import Tracer
    from .query.executor import QueryEngine
    from .strategies import Strategy

    system, node, truth = demo_deployment()
    trace_path = getattr(args, "trace", None)
    if trace_path:
        system.set_tracer(Tracer())
    engine = QueryEngine(system)
    failures = 0
    for strategy in Strategy:
        res = engine.execute(node, strategy=strategy)
        status = "ok" if res.nhits == truth else "FAIL"
        failures += status == "FAIL"
        used = res.strategy.paper_label
        print(
            f"  {strategy.paper_label:<9} -> {used:<8} {res.nhits:>6} hits "
            f"({res.elapsed_s * 1e3:7.2f} simulated ms)  {status}"
        )
    if trace_path:
        system.tracer.write_chrome(trace_path)
        print(f"  trace: {len(system.tracer.spans)} spans -> {trace_path}")
    if getattr(args, "report", False):
        from .pdc.observability import report as status_report

        print()
        print(status_report(system, top_servers=4))
        print()
    print("selftest:", "PASS" if failures == 0 else f"FAIL ({failures})")
    return 1 if failures else 0


#: Demo queries for ``python -m repro trace``.
_TRACE_DEMOS = ("simple", "multi", "or")


def _demo_query(which: str):
    from .query.ast import Condition, combine_and, combine_or
    from .types import PDCType, QueryOp

    energy = Condition("energy", QueryOp.GT, PDCType.FLOAT, 2.0)
    x_lo = Condition("x", QueryOp.LT, PDCType.FLOAT, 150.0)
    x_hi = Condition("x", QueryOp.GT, PDCType.FLOAT, 290.0)
    if which == "simple":
        return energy
    if which == "multi":
        return combine_and(energy, x_lo)
    return combine_or(combine_and(energy, x_lo), x_hi)


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs import Tracer
    from .query.executor import QueryEngine
    from .strategies import Strategy

    system, _, _ = demo_deployment()
    tracer = Tracer()
    system.set_tracer(tracer)
    node = _demo_query(args.query)
    strategy = Strategy(args.strategy) if args.strategy else None
    res = QueryEngine(system).execute(node, strategy=strategy)
    tracer.write_chrome(args.out)
    if args.jsonl:
        tracer.write_jsonl(args.jsonl)
    print(
        f"{args.query} query ({res.strategy.paper_label}): {res.nhits} hits in "
        f"{res.elapsed_s * 1e3:.2f} simulated ms"
    )
    print(f"trace: {len(tracer.spans)} spans -> {args.out}"
          + (f" (+ JSONL {args.jsonl})" if args.jsonl else ""))
    summary = tracer.summary(res.trace)
    for cat in sorted(summary, key=summary.get, reverse=True):
        print(f"  {cat:<16} {summary[cat] * 1e3:9.3f} ms")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """EXPLAIN (plan only) or EXPLAIN ANALYZE (plan + run + join) a demo
    query."""
    from .query.planner import explain
    from .strategies import Strategy

    system, _, _ = demo_deployment()
    node = _demo_query(args.query)
    strategy = Strategy(args.strategy) if args.strategy else None
    if not args.analyze:
        print(explain(system, node, strategy))
        return 0

    from .obs.analyze import analyze, render_analysis

    # No explicit --strategy: analyze the AUTO-chosen plan, matching what
    # plain `explain` showed.
    qa = analyze(system, node, strategy=strategy or Strategy.AUTO)
    print(render_analysis(qa, label=args.query))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile a demo query's trace: utilization, skew, critical path."""
    from .errors import PDCError
    from .obs import Tracer
    from .obs.profiler import (
        profile,
        render_profile,
        write_collapsed,
        write_speedscope,
    )
    from .query.executor import QueryEngine
    from .strategies import Strategy

    if args.load:
        tracer = Tracer.read_jsonl(args.load)
        if not tracer.spans:
            raise PDCError(f"{args.load}: trace has no spans")
        root = None
    else:
        system, _, _ = demo_deployment()
        tracer = Tracer()
        system.set_tracer(tracer)
        node = _demo_query(args.query)
        strategy = Strategy(args.strategy) if args.strategy else None
        res = QueryEngine(system).execute(node, strategy=strategy)
        root = res.trace
        print(
            f"{args.query} query ({res.strategy.paper_label}): {res.nhits} "
            f"hits in {res.elapsed_s * 1e3:.2f} simulated ms"
        )
    print(render_profile(profile(tracer, root)))
    if args.flamegraph:
        write_collapsed(tracer, args.flamegraph, root)
        print(f"collapsed stacks -> {args.flamegraph}")
    if args.speedscope:
        write_speedscope(tracer, args.speedscope, root)
        print(f"speedscope profile -> {args.speedscope}")
    return 0


def cmd_benchcheck(args: argparse.Namespace) -> int:
    """Run the deterministic micro-suite and gate against the baseline."""
    from .obs.regress import benchcheck

    code, text = benchcheck(
        baseline_path=args.baseline,
        update=args.update,
        report_path=args.report,
    )
    print(text)
    if args.report:
        print(f"report -> {args.report}")
    return code


def cmd_metrics(args: argparse.Namespace) -> int:
    from .obs import MetricsRegistry
    from .query.executor import QueryEngine
    from .strategies import Strategy

    registry = MetricsRegistry()
    system, node, _ = demo_deployment(metrics=registry)
    engine = QueryEngine(system)
    for strategy in (Strategy.HISTOGRAM, Strategy.HIST_INDEX, Strategy.HISTOGRAM):
        engine.execute(node, strategy=strategy)
    print(registry.render(), end="")
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    from .faults import FaultConfig, FaultPlan
    from .obs import MetricsRegistry
    from .query.executor import QueryEngine
    from .strategies import Strategy

    config = FaultConfig(
        pfs_read_error_rate=args.pfs_error_rate,
        pfs_slow_rate=args.pfs_slow_rate,
        server_crash_rate=args.crash_rate,
        server_slow_rate=args.slow_rate,
        query_timeout_s=args.timeout,
    )
    registry = MetricsRegistry()
    system, node, truth = demo_deployment(metrics=registry)
    plan = FaultPlan(seed=args.seed, config=config)
    system.set_fault_plan(plan)
    engine = QueryEngine(system)
    print(f"fault injection demo (seed {args.seed}, truth {truth} hits)")
    failures = 0
    for strategy in Strategy:
        res = engine.execute(node, strategy=strategy)
        if res.complete:
            ok = res.nhits == truth
            status = "ok" if ok else "FAIL"
            failures += not ok
        else:
            # Degraded answers must stay a subset of the truth.
            ok = res.nhits <= truth
            status = ("DEGRADED+timeout" if res.timed_out else "DEGRADED") if ok else "FAIL"
            failures += not ok
        print(
            f"  {strategy.paper_label:<9} {res.nhits:>6}/{truth} hits "
            f"{res.retries:>3} retries {res.failovers} failovers "
            f"({res.elapsed_s * 1e3:8.2f} simulated ms)  {status}"
        )
        for sid, errors in sorted(res.server_errors.items()):
            for err in errors:
                print(f"      server{sid}: {err}")
        # Crashed servers rejoin (cold) before the next strategy runs.
        for sid in sorted(system.crashed):
            system.recover_server(sid)
    print()
    print("injected faults by kind:")
    for kind, count in sorted(plan.snapshot().items()):
        print(f"  {kind:<18} {count}")
    if not plan.snapshot():
        print("  (none)")
    fault_metrics = [
        line
        for line in registry.render().splitlines()
        if ("fault" in line or "lost" in line or "degraded" in line or "timeout" in line)
        and not line.startswith("#")
    ]
    if fault_metrics:
        print()
        print("fault metrics:")
        for line in fault_metrics:
            print(f"  {line}")
    print()
    print("faults demo:", "PASS" if failures == 0 else f"FAIL ({failures})")
    return 1 if failures else 0


def cmd_info(args: argparse.Namespace) -> int:
    from . import __version__
    from .bench.harness import SCALES
    from .strategies import Strategy

    print(f"repro {__version__} — PDC-Query reproduction (IPDPS 2020)")
    print("strategies:", ", ".join(f"{s.value} ({s.paper_label})" for s in Strategy))
    print("scales:")
    for name, sc in SCALES.items():
        print(
            f"  {name:<6} {sc.vpic_particles:>9,} particles x scale "
            f"{sc.virtual_scale:>6.0f}, {sc.n_servers} servers, "
            f"{sc.boss_objects:,} BOSS objects"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PDC-Query reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("fig3", "single-object queries across region sizes (Fig. 3)"),
        ("fig4", "multi-object queries (Fig. 4)"),
        ("fig5", "BOSS metadata+data queries (Fig. 5)"),
        ("fig6", "server-count scaling (Fig. 6)"),
        ("index-size", "bitmap index storage footprint (§V)"),
        ("all", "every figure"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_scale_arg(p)
        if name in ("fig3", "all"):
            p.add_argument(
                "--region-sizes", type=_mb_list,
                help="comma-separated region sizes in MB (fig3 only), e.g. 4,32,128",
            )
        p.set_defaults(func=cmd_figures)

    p = sub.add_parser("selftest", help="fast end-to-end sanity check")
    p.add_argument(
        "--report", action="store_true",
        help="also print the deployment status report",
    )
    p.add_argument(
        "--trace", metavar="FILE",
        help="write a Chrome trace of the selftest queries to FILE",
    )
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser(
        "trace", help="run a demo query with tracing and export the timeline"
    )
    p.add_argument("query", choices=_TRACE_DEMOS, help="demo query to trace")
    p.add_argument(
        "--out", default="trace.json",
        help="Chrome trace_event JSON output path (default: trace.json)",
    )
    p.add_argument("--jsonl", help="also write a JSONL structured-event log")
    from .strategies import Strategy

    p.add_argument(
        "--strategy",
        choices=[s.value for s in Strategy],
        help="evaluation strategy (default: the deployment's)",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "explain",
        help="show the planner's plan for a demo query "
             "(--analyze: run it and join estimates with actuals)",
    )
    p.add_argument("query", choices=_TRACE_DEMOS, help="demo query to explain")
    p.add_argument(
        "--analyze", action="store_true",
        help="execute the query and annotate the plan with measured actuals",
    )
    p.add_argument(
        "--strategy",
        choices=[s.value for s in Strategy],
        help="evaluation strategy (default: the deployment's)",
    )
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "profile",
        help="utilization/skew/critical-path profile of a demo query trace",
    )
    p.add_argument(
        "query", choices=_TRACE_DEMOS, nargs="?", default="multi",
        help="demo query to profile (default: multi)",
    )
    p.add_argument(
        "--load", metavar="JSONL",
        help="profile a saved JSONL trace instead of running a demo query",
    )
    p.add_argument(
        "--strategy",
        choices=[s.value for s in Strategy],
        help="evaluation strategy (default: the deployment's)",
    )
    p.add_argument(
        "--flamegraph", metavar="FILE",
        help="write collapsed-stack flamegraph input to FILE",
    )
    p.add_argument(
        "--speedscope", metavar="FILE",
        help="write a speedscope JSON profile to FILE",
    )
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "benchcheck",
        help="deterministic micro-suite vs the committed BENCH baseline",
    )
    p.add_argument(
        "--baseline", default="BENCH_microsuite.json",
        help="baseline file (default: BENCH_microsuite.json)",
    )
    p.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline with the current numbers",
    )
    p.add_argument(
        "--report", metavar="FILE",
        help="also write a JSON report (metrics + per-metric verdicts)",
    )
    p.set_defaults(func=cmd_benchcheck)

    p = sub.add_parser(
        "metrics", help="run a demo workload and print the metrics registry"
    )
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "faults",
        help="run the demo workload under deterministic fault injection",
    )
    p.add_argument("--seed", type=int, default=1234, help="fault plan seed")
    p.add_argument(
        "--pfs-error-rate", type=float, default=0.05,
        help="PFS extent read failure probability (default: 0.05)",
    )
    p.add_argument(
        "--pfs-slow-rate", type=float, default=0.05,
        help="PFS latency-spike probability (default: 0.05)",
    )
    p.add_argument(
        "--crash-rate", type=float, default=0.1,
        help="per-dispatch server crash probability (default: 0.1)",
    )
    p.add_argument(
        "--slow-rate", type=float, default=0.1,
        help="per-query server straggler probability (default: 0.1)",
    )
    p.add_argument(
        "--timeout", type=_positive_float, default=None,
        help="per-query simulated-seconds deadline (default: none)",
    )
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser(
        "batch",
        help="batching demo: isolated vs batched overlapping queries",
    )
    p.add_argument(
        "--queries", type=_positive_int, default=8,
        help="number of overlapping threshold queries (default: 8)",
    )
    p.add_argument(
        "--width", type=_positive_int, default=8,
        help="batch window width (default: 8)",
    )
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser(
        "serve",
        help="multi-tenant query-service demo (admission, fair share, SLOs)",
    )
    p.add_argument("--seed", type=int, default=1234, help="arrival RNG seed")
    p.add_argument(
        "--requests", type=_positive_int, default=60,
        help="number of open-loop requests (default: 60)",
    )
    p.add_argument(
        "--rate", type=_positive_float, default=400.0,
        help="aggregate arrival rate, queries per simulated second "
             "(default: 400)",
    )
    p.add_argument(
        "--window", type=int, default=4,
        help="batch window width (default: 4)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "monitor",
        help="continuous-telemetry demo: SLO burn-rate alerts over a "
             "deterministic overload run (--watch: frame-by-frame replay)",
    )
    p.add_argument("--seed", type=int, default=1234, help="arrival RNG seed")
    p.add_argument(
        "--requests", type=_positive_int, default=150,
        help="number of open-loop requests (default: 150)",
    )
    p.add_argument(
        "--watch", action="store_true",
        help="replay the run frame by frame (per-tenant rates, queue-wait "
             "p99, alert transitions)",
    )
    p.add_argument(
        "--step", type=_positive_float, default=0.01,
        help="--watch frame width in simulated seconds (default: 0.01)",
    )
    p.add_argument(
        "--openmetrics", metavar="FILE",
        help="write the OpenMetrics exposition (cumulative + windowed + "
             "SLO gauges) to FILE",
    )
    p.add_argument(
        "--series", metavar="FILE",
        help="write the recorded time series as JSONL to FILE",
    )
    p.add_argument(
        "--alerts", metavar="FILE",
        help="write the alert stream as JSONL to FILE",
    )
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("info", help="version, strategies, scale presets")
    p.set_defaults(func=cmd_info)

    args = parser.parse_args(argv)
    from .errors import PDCError

    try:
        return args.func(args)
    except (OSError, PDCError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
