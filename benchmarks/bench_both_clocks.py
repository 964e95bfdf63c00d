#!/usr/bin/env python3
"""Fig. 3 and Fig. 4 on both clocks: does the engine, and not only the cost
model, order the strategies as the paper does?

    PYTHONPATH=src python benchmarks/bench_both_clocks.py            # small scale
    PYTHONPATH=src python benchmarks/bench_both_clocks.py --scale tiny --reps 2

Each figure configuration is built as ``repro.bench.figures`` builds it: a
fresh deployment per strategy (the bitmap index for PDC-HI, the sorted
replica keyed on Energy for PDC-SH).  Fig. 3 runs at 4 MB and 32 MB regions,
Fig. 4 at 32 MB.  A first pass over the windows is the figure's own pass —
its simulated seconds are the figure's query column (``--scale tiny``: those
of ``BENCH_figures_tiny.txt``) — and warms the caches (PDC-F preloads its
data first, as the figure does).  Then every window is executed ``--reps``
more times; per (window, strategy) the median of those executions is taken
on each clock: wall seconds around ``QueryEngine.execute`` and the
simulated ``elapsed_s``.

Printed per configuration: each strategy's median over windows on both
clocks; the per-window agreement of the wall order with the simulated order
(the share of strategy pairs both clocks order alike, and whether they name
the same fastest strategy); and the PDC-HI / PDC-H and PDC-SH / PDC-HI wall
ratios (median over windows, and how many windows the first is below 1).
"""

from __future__ import annotations

import argparse
import itertools
import statistics
import time
from typing import Dict, List, Sequence

from repro.bench.harness import SCALES, build_vpic_system, get_vpic_dataset
from repro.query.executor import QueryEngine
from repro.strategies import Strategy
from repro.types import MB
from repro.workloads.queries import build_pdc_query, multi_object_queries, single_object_queries

STRATEGIES = (
    ("PDC-F", Strategy.FULL_SCAN),
    ("PDC-H", Strategy.HISTOGRAM),
    ("PDC-HI", Strategy.HIST_INDEX),
    ("PDC-SH", Strategy.SORT_HIST),
)


def measure(scale, region_size: int, specs, variables: Sequence[str], reps: int):
    """``{label: [(figure sim, median wall, median sim) per window]}``."""
    ds = get_vpic_dataset(scale)
    out: Dict[str, List[tuple]] = {}
    for label, strategy in STRATEGIES:
        system, _ = build_vpic_system(
            scale, region_size, variables,
            with_index=variables if strategy is Strategy.HIST_INDEX else (),
            sorted_by="Energy" if strategy is Strategy.SORT_HIST else None,
            dataset=ds,
        )
        engine = QueryEngine(system)
        nodes = [build_pdc_query(system, spec).node for spec in specs]
        amortized = 0.0  # the figure spreads PDC-F's preload over its windows
        if strategy is Strategy.FULL_SCAN:
            amortized = engine.preload(sorted(variables)) / len(nodes)
        first = [engine.execute(node, strategy=strategy).elapsed_s + amortized
                 for node in nodes]
        walls: List[List[float]] = [[] for _ in nodes]
        sims: List[List[float]] = [[] for _ in nodes]
        for _ in range(reps):
            for i, node in enumerate(nodes):
                t0 = time.perf_counter()
                res = engine.execute(node, strategy=strategy)
                walls[i].append(time.perf_counter() - t0)
                sims[i].append(res.elapsed_s)
        out[label] = [
            (f, statistics.median(w), statistics.median(s))
            for f, w, s in zip(first, walls, sims)
        ]
    return out


def agreement(rows: Dict[str, List[tuple]], window: int):
    """(share of strategy pairs ordered alike on both clocks, same fastest)."""
    labels = list(rows)
    wall = {k: rows[k][window][1] for k in labels}
    sim = {k: rows[k][window][2] for k in labels}
    pairs = list(itertools.combinations(labels, 2))
    alike = sum((wall[a] < wall[b]) == (sim[a] < sim[b]) for a, b in pairs)
    return alike / len(pairs), min(wall, key=wall.get) == min(sim, key=sim.get)


def report(title: str, labels: Sequence[str], rows: Dict[str, List[tuple]]) -> None:
    print(title)
    print("=" * len(title))
    print(f"{'window':32s}" + "".join(f"{k + ' wall':>14s}{k + ' sim':>14s}" for k in rows)
          + f"{'order':>8s}{'fastest':>9s}")
    shares, same = [], 0
    for i, label in enumerate(labels):
        share, fastest = agreement(rows, i)
        shares.append(share)
        same += fastest
        cells = "".join(f"{rows[k][i][1] * 1e3:12.3f}ms{rows[k][i][2] * 1e3:12.3f}ms"
                        for k in rows)
        print(f"{label:32s}{cells}{share:8.2f}{'yes' if fastest else 'no':>9s}")
    print("median over windows:")
    for k in rows:
        wall = statistics.median(r[1] for r in rows[k])
        sim = statistics.median(r[2] for r in rows[k])
        print(f"  {k:7s} wall {wall * 1e3:9.3f} ms   sim {sim * 1e3:9.3f} ms")
    print(f"order agreement: {statistics.mean(shares):.2f} of strategy pairs, "
          f"same fastest in {same}/{len(labels)} windows")
    for a, b in (("PDC-HI", "PDC-H"), ("PDC-SH", "PDC-HI")):
        ratios = [x[1] / y[1] for x, y in zip(rows[a], rows[b])]
        below = sum(r < 1.0 for r in ratios)
        print(f"wall {a} / {b}: median {statistics.median(ratios):.2f}, "
              f"below 1 in {below}/{len(ratios)} windows")
    print("figure pass, simulated query seconds:")
    for k in rows:
        print(f"  {k:7s} " + " ".join(f"{r[0] * 1e3:.2f}" for r in rows[k]))
    print()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="small")
    parser.add_argument("--reps", type=int, default=5,
                        help="timed executions per (window, strategy), after the figure pass")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    scale = SCALES[args.scale]
    single = single_object_queries(15)
    for mb in (4, 32):
        rows = measure(scale, mb * MB, single, ("Energy",), args.reps)
        report(f"Fig 3, {mb} MB regions ({scale.n_servers} servers, scale={scale.name}, "
               f"median of {args.reps})", [s.label for s in single], rows)
    multi = multi_object_queries()
    rows = measure(scale, 32 * MB, multi, ("Energy", "x", "y", "z"), args.reps)
    report(f"Fig 4, 32 MB regions ({scale.n_servers} servers, scale={scale.name}, "
           f"median of {args.reps})", [s.label for s in multi], rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
