"""Measurement process: one workload, E epochs, one JSON report on stdout.

``run.py`` starts this file as a child (one at a time, ``PYTHONHASHSEED=0``)
so that peak RSS and hash order belong to the workload alone.  An epoch
builds the deployment afresh from the generated arrays, runs the warm-up
round, then replays the request sequence once, timing every request with the
reference probe run around every timed section (see ``estimator.py``).

The end-to-end table always comes from the untraced epochs.  With
``--trace 1`` the process runs only a few of them (host diagnostics and the
numerator of ``trace.overhead_ratio``), then traced epochs with the wrappers
of ``trace.py`` installed, then one epoch under a ``sys.setprofile`` call
counter, and adds the per-layer table to its report.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"benchmark needs the program's source at {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import estimator  # noqa: E402
import oracle  # noqa: E402
from probe import PROBE_NOMINAL_S, probe  # noqa: E402
from trace import SpanRecorder, span_names, traced  # noqa: E402
from workloads import BURST, Workload, make_workload  # noqa: E402

from repro.query.selection import Selection  # noqa: E402

MIN_EPOCHS = 8
QUICK_EPOCHS = 2
#: Untraced epochs a traced run starts with (host diagnostics, numerator of
#: ``trace.overhead_ratio``).
TRACED_RUN_PLAIN_EPOCHS = 3
#: Probes inside the request sequence (plus four around the set-up).
SEQUENCE_PROBES = 8


@dataclass
class Epoch:
    probes: List[float] = field(default_factory=list)
    setup_s: float = 0.0
    parts: Dict[str, float] = field(default_factory=dict)
    warmup_s: float = 0.0
    #: Raw seconds per request slot and (service workloads) per burst slot.
    latency: List[float] = field(default_factory=list)
    bursts: List[float] = field(default_factory=list)
    failed: int = 0
    #: Seed-exact simulated-plane numbers and layer counters of this epoch.
    exact: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def level(self) -> float:
        return estimator.probe_level(self.probes)

    @property
    def busy(self) -> List[float]:
        return self.bursts or self.latency


class CallCounter:
    """``sys.setprofile`` hook counting Python and C function calls."""

    def __init__(self) -> None:
        self.py_calls = 0
        self.c_calls = 0

    def __call__(self, frame, event, arg) -> None:
        if event == "call":
            self.py_calls += 1
        elif event == "c_call":
            self.c_calls += 1


class Runner:
    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.mutates = any(r.kind == "write" for r in workload.requests)
        self.expected = oracle.expected_outputs(
            workload.arrays, workload.requests, BURST if workload.bursts else 0
        )
        self.n = len(workload.requests)
        self.probe_every = max(1, self.n // SEQUENCE_PROBES)

    # ------------------------------------------------------------ one epoch
    def epoch(self, recorder: Optional[SpanRecorder] = None,
              counter: Optional[CallCounter] = None) -> Epoch:
        wl = self.workload
        ep = Epoch(probes=[probe(), probe()])
        arrays = wl.arrays
        if self.mutates:  # in-place overwrites write through to the payload
            arrays = {name: a.copy() for name, a in arrays.items()}
        gc.collect()
        t0 = perf_counter()
        dep = wl.build(arrays, perf_counter)
        t1 = perf_counter()
        if wl.bursts:
            self._burst(dep, wl.warmup, None, None, None)
        else:
            recent: List[Selection] = []
            for req in wl.warmup:
                self._engine_request(dep, req, recent)
        t2 = perf_counter()
        ep.setup_s, ep.warmup_s, ep.parts = t2 - t0, t2 - t1, dep.parts
        ep.probes += [probe(), probe()]

        hits0 = dep.system.cache_stats()
        batches0 = len(dep.service.scheduler.batches) if dep.service else 0
        totals = {"sim_s": 0.0, "vbytes": 0.0, "pruned": 0, "read": 0,
                  "cached": 0, "index_reads": 0}
        gc.collect()
        if recorder is not None:
            with traced(recorder):
                self._sequence(dep, ep, totals, recorder, None)
        else:
            self._sequence(dep, ep, totals, None, counter)
        ep.probes.append(probe())
        self._account(dep, ep, totals, hits0, batches0)
        dep.close()
        return ep

    def _sequence(self, dep, ep, totals, recorder, counter) -> None:
        wl, expected = self.workload, self.expected
        if wl.bursts:
            for start in range(0, self.n, BURST):
                if start % self.probe_every < BURST and start:
                    ep.probes.append(probe())
                idx = range(start, min(start + BURST, self.n))
                burst_s, lat, tickets = self._burst(
                    dep, [wl.requests[i] for i in idx], recorder, counter, start
                )
                ep.bursts.append(burst_s)
                ep.latency.extend(lat)
                for i, ticket in zip(idx, tickets):
                    ep.failed += not self._check_ticket(expected[i], ticket, totals)
            return
        recent: List[Selection] = []
        for i, req in enumerate(wl.requests):
            if i % self.probe_every == 0 and i:
                ep.probes.append(probe())
            if recorder is not None:
                recorder.request_id = i
            if counter is not None:
                sys.setprofile(counter)
            t0 = perf_counter()
            try:
                out = self._engine_request(dep, req, recent)
            except Exception as exc:  # a failed request is a counted failure
                out = None
                print(f"request {i} raised {exc!r}", file=sys.stderr)
            t1 = perf_counter()
            if counter is not None:
                sys.setprofile(None)
            ep.latency.append(t1 - t0)
            if out is None:
                ep.failed += 1
                continue
            nhits, payload, result = out
            ep.failed += not oracle.check(expected[i], nhits, payload)
            self._tally(result, totals)

    def _engine_request(self, dep, req, recent):
        """Run one engine-workload request; returns (nhits, payload, result)."""
        engine = dep.engine
        if req.kind == "query":
            res = engine.execute(req.node, strategy=req.strategy)
            recent.append(res.selection)
            del recent[:-2]
            return res.nhits, res.selection.coords, res
        if req.kind == "get_data":
            res = engine.get_data(recent[-1], req.object_name, strategy=req.strategy)
            return int(res.values.size), res.values, res
        if req.kind == "setop":
            sel = getattr(recent[-2], req.op)(recent[-1])
            return sel.nhits, sel.coords, None
        if req.kind == "gather":
            domain = dep.system.get_object(req.object_name).n_elements
            sel = Selection.from_unsorted(req.coords, domain)
            res = engine.get_data(sel, req.object_name, strategy=req.strategy)
            return int(res.values.size), res.values, res
        raise ValueError(f"engine workloads have no {req.kind!r} requests")

    def _burst(self, dep, requests, recorder, counter, first_index):
        """Submit one burst and drain; returns (burst seconds, per-request
        latencies, tickets).  A request's latency runs from its own submit
        call to the return of the drain that made its ticket terminal."""
        svc = dep.service
        starts, tickets = [], []
        if counter is not None:
            sys.setprofile(counter)
        t0 = perf_counter()
        for k, req in enumerate(requests):
            if recorder is not None:
                recorder.request_id = first_index + k
            starts.append(perf_counter())
            if req.kind == "write":
                tickets.append(svc.submit_write(req.tenant, req.object_name, req.values,
                                                offset=req.offset))
            else:
                tickets.append(svc.submit(req.tenant, req.node, strategy=req.strategy))
        if recorder is not None:
            recorder.request_id = first_index  # drain spans belong to the burst
        svc.drain()
        t1 = perf_counter()
        if counter is not None:
            sys.setprofile(None)
        return t1 - t0, [t1 - s for s in starts], tickets

    def _check_ticket(self, expected, ticket, totals) -> bool:
        if ticket.status != "done" or ticket.result is None:
            return False
        res = ticket.result
        self._tally(res, totals)
        if hasattr(res, "n_elements"):  # WriteResult
            return res.n_elements == expected.nhits
        payload = res.selection.coords if res.selection is not None else None
        return oracle.check(expected, res.nhits, payload)

    @staticmethod
    def _tally(res, totals) -> None:
        if res is None:  # client-side set operation: no simulated cost
            return
        totals["sim_s"] += res.elapsed_s
        totals["vbytes"] += getattr(res, "bytes_read_virtual", 0.0)
        totals["vbytes"] += getattr(res, "batch_shared_bytes_virtual", 0.0)
        totals["pruned"] += getattr(res, "regions_pruned", 0)
        totals["read"] += getattr(res, "regions_read", 0)
        totals["cached"] += getattr(res, "regions_cached", 0)
        totals["index_reads"] += getattr(res, "index_reads", 0)

    def _account(self, dep, ep, totals, hits0, batches0) -> None:
        """Simulated-plane numbers and layer counters, from results and
        public stats only."""
        n, system = self.n, dep.system
        data = sum(o.data.nbytes for o in system.objects.values())
        index = sum(system.index_size_bytes(name) for name, o in system.objects.items()
                    if o.indexes is not None)
        replica = sum(g.replica.nbytes for g in system.replicas.values())
        ep.exact = {
            "sim_s_per_request": totals["sim_s"] / n,
            "virtual_bytes_read_per_request": totals["vbytes"] / n,
            "storage_amplification": (data + index + replica) / data,
        }
        touched = totals["pruned"] + totals["read"] + totals["cached"]
        stats = system.cache_stats()
        hits = sum(stats[s][0] - hits0[s][0] for s in stats)
        misses = sum(stats[s][1] - hits0[s][1] for s in stats)
        c = ep.counters = {
            "executor.regions_pruned_fraction": totals["pruned"] / touched if touched else 0.0,
            "executor.regions_read_per_request": totals["read"] / n,
            "executor.regions_cached_per_request": totals["cached"] / n,
            "executor.index_reads_per_request": totals["index_reads"] / n,
            "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }
        for name in ("scheduler.semantic_hit_fraction", "scheduler.shared_read_fraction",
                     "scheduler.saved_bytes_fraction", "service.windows_per_request",
                     "service.rejected_fraction", "service.shed_fraction",
                     "ingest.hist_rebuild_fraction", "ingest.index_compactions_per_write",
                     "ingest.elements_per_write"):
            c[name] = 0.0
        svc = dep.service
        if svc is None:
            return
        batches = svc.scheduler.batches[batches0:]
        width = sum(b.width for b in batches)
        served = sum(b.semantic_hits + b.semantic_narrowed + b.semantic_repaired for b in batches)
        shared = sum(b.shared_reads for b in batches)
        saved = sum(b.saved_bytes_virtual for b in batches)
        read_bytes = sum(b.total_bytes_read_virtual for b in batches)
        c["scheduler.semantic_hit_fraction"] = served / width if width else 0.0
        c["scheduler.shared_read_fraction"] = (
            shared / (shared + totals["read"]) if shared + totals["read"] else 0.0)
        c["scheduler.saved_bytes_fraction"] = (
            saved / (saved + read_bytes) if saved + read_bytes else 0.0)
        c["service.windows_per_request"] = len(batches) / n
        submitted = sum(s.submitted for s in svc.stats.values())
        c["service.rejected_fraction"] = sum(
            s.rejected_rate + s.rejected_queue for s in svc.stats.values()) / submitted
        c["service.shed_fraction"] = sum(s.shed for s in svc.stats.values()) / submitted
        if self.mutates:
            t = svc.ingest.totals()
            merges = t["hist_merges"] + t["hist_rebuilds"]
            c["ingest.hist_rebuild_fraction"] = t["hist_rebuilds"] / merges if merges else 0.0
            c["ingest.index_compactions_per_write"] = t["compactions"] / t["ops"]
            c["ingest.elements_per_write"] = t["elements"] / t["ops"]


# ------------------------------------------------------------------ reduce
def _timing_metrics(epochs: List[Epoch], n: int, scaled: bool) -> Dict[str, float]:
    """Slot-quartile metrics over ``epochs``; ``scaled`` picks reference
    seconds, otherwise raw seconds (host diagnostics)."""
    def rows(get):
        return [estimator.to_reference(get(e), e.level) if scaled else np.asarray(get(e))
                for e in epochs]
    latency = estimator.slot_values(rows(lambda e: e.latency))
    busy = estimator.slot_values(rows(lambda e: e.busy))
    setup = estimator.slot_values(rows(lambda e: [e.setup_s]))
    return {
        "throughput": estimator.throughput(n, busy),
        "p50_ms": 1e3 * estimator.percentile(latency, 50),
        "p95_ms": 1e3 * estimator.percentile(latency, 95),
        "setup_s": float(setup[0]),
    }


def _exact_repeat(epochs: List[Epoch]) -> bool:
    return all(e.exact == epochs[0].exact and e.counters == epochs[0].counters
               for e in epochs)


def end_to_end(epochs: List[Epoch], n: int) -> Dict[str, float]:
    ref = _timing_metrics(epochs, n, scaled=True)
    attempted = n * len(epochs)
    failed = sum(e.failed for e in epochs)
    return {
        "throughput_rps_ref": ref["throughput"],
        "latency_p50_ms_ref": ref["p50_ms"],
        "latency_p95_ms_ref": ref["p95_ms"],
        "setup_s": ref["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_fraction": (attempted - failed) / attempted,
        **epochs[-1].exact,
    }


def host_metrics(epochs: List[Epoch], n: int) -> Dict[str, float]:
    raw = _timing_metrics(epochs, n, scaled=False)
    probes = np.concatenate([e.probes for e in epochs])
    q1, q2, q3 = np.percentile(probes, [25, 50, 75])
    return {
        "host.probe_level_ms": 1e3 * float(np.median([e.level for e in epochs])),
        "host.probe_iqr_fraction": float((q3 - q1) / q2),
        "host.raw_throughput_rps": raw["throughput"],
        "host.raw_latency_p50_ms": raw["p50_ms"],
        "host.raw_latency_p95_ms": raw["p95_ms"],
        "host.raw_setup_s": raw["setup_s"],
    }


def _ref(seconds: float, epoch: Epoch) -> float:
    return float(estimator.to_reference(seconds, epoch.level))


def per_layer(runner: Runner, plain: List[Epoch], traced_runs, counted: CallCounter) -> Dict[str, float]:
    """The traced run's table: ``plain`` untraced epochs, ``traced_runs`` as
    (epoch, recorder) pairs, ``counted`` from the call-counting epoch."""
    n = runner.n
    per_request = 1.0 / (n * len(traced_runs))
    # Summed over the traced epochs, in reference seconds:
    # span name -> [calls, self seconds, duration seconds].
    spans: Dict[str, List[float]] = {name: [0, 0.0, 0.0] for name in span_names()}
    request_s = covered_s = 0.0
    for ep, rec in traced_runs:
        for name, (calls, self_s, total_s) in rec.by_name().items():
            row = spans[name]
            row[0] += calls
            row[1] += _ref(self_s, ep)
            row[2] += _ref(total_s, ep)
        request_s += _ref(sum(ep.busy), ep)
        covered_s += _ref(rec.top_level_seconds(), ep)

    out: Dict[str, float] = {}
    for name, (calls, self_s, _) in spans.items():
        out[f"{name}.self_ms_per_request"] = 1e3 * self_s * per_request
        out[f"{name}.calls_per_request"] = calls * per_request
    for part in ("create_object", "build_index", "build_sorted_replica"):
        out[f"setup.{part}_s"] = estimator.lower_quartile(
            [_ref(e.parts.get(part, 0.0), e) for e in plain])
    out["setup.warmup_round_s"] = estimator.lower_quartile([_ref(e.warmup_s, e) for e in plain])
    out.update(plain[-1].counters)

    # The numpy replay ran once, before the first epoch.
    oracle_s = _ref(sum(e.oracle_s for e in runner.expected), plain[0])
    out["kernel.oracle_ms_per_request"] = 1e3 * oracle_s / n
    out["executor.over_oracle_ratio"] = spans["executor.execute"][2] / len(traced_runs) / oracle_s
    out["py.calls_per_request"] = counted.py_calls / n
    out["py.c_calls_per_request"] = counted.c_calls / n
    untraced = _timing_metrics(plain, n, scaled=True)["throughput"]
    traced_tp = _timing_metrics([ep for ep, _ in traced_runs], n, scaled=True)["throughput"]
    out["trace.overhead_ratio"] = untraced / traced_tp
    out["trace.unattributed_fraction"] = 1.0 - covered_s / request_s
    out["executor.execute.self_fraction"] = spans["executor.execute"][1] / request_s
    return out


# -------------------------------------------------------------------- main
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--trace-out", default="")
    args = ap.parse_args(argv)

    t_start = perf_counter()
    workload = make_workload(args.workload, args.seed, quick=args.quick)
    runner = Runner(workload)
    for _ in range(3):  # let the probe's pages and the CPU clock settle
        probe()

    # Untraced epochs first: the end-to-end table (and peak RSS) never sees
    # a traced epoch.  Only an untraced full run spends the --seconds budget.
    if args.quick:
        floor, deadline = QUICK_EPOCHS, 0.0
    elif args.trace:
        floor, deadline = TRACED_RUN_PLAIN_EPOCHS, 0.0
    else:
        floor, deadline = MIN_EPOCHS, t_start + args.seconds
    plain: List[Epoch] = []
    while len(plain) < floor or perf_counter() < deadline:
        plain.append(runner.epoch())
    report = {
        "workload": workload.name, "seed": args.seed, "quick": args.quick,
        "requests_per_epoch": runner.n, "fingerprint": workload.fingerprint(),
        "probe_nominal_s": PROBE_NOMINAL_S, "epochs": len(plain),
        "latency_slots": len(plain[0].latency),
        "end_to_end": end_to_end(plain, runner.n),
        "host": host_metrics(plain, runner.n),
    }

    epochs = list(plain)
    if args.trace:
        traced_runs = []
        for _ in range(1 if args.quick else 2):
            rec = SpanRecorder()
            traced_runs.append((runner.epoch(recorder=rec), rec))
        counted = CallCounter()
        epochs += [ep for ep, _ in traced_runs] + [runner.epoch(counter=counted)]
        report["per_layer"] = {**per_layer(runner, plain, traced_runs, counted),
                               **report["host"]}
        if args.trace_out:
            traced_runs[0][1].write_jsonl(args.trace_out)

    report.update({
        "attempted": runner.n * len(epochs),
        "failed": sum(e.failed for e in epochs),
        "exact_repeat": _exact_repeat(epochs),
        "wall_s": perf_counter() - t_start,
    })
    report["correct"] = report["failed"] == 0 and report["exact_repeat"]
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
