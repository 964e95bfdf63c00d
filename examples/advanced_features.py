#!/usr/bin/env python
"""Beyond the paper's figures: the extension features in action.

1. **Cost-based AUTO strategy + EXPLAIN** — the paper's §IX future work
   ("bringing query optimization techniques used by RDBMS"): the planner
   estimates each strategy's cost from cached metadata and picks the
   cheapest, per query.
2. **Asynchronous client** — §III-C's non-blocking submission with a
   background aggregation thread.
3. **N-D objects + hyperslab region constraints** — `pdc_region_t`-style
   multi-dimensional spatial selection.
4. **Fault tolerance** — server failure/recovery and metadata
   checkpoint/restore.
5. **Observability** — the deployment's status report.

Run:  python examples/advanced_features.py
"""

import numpy as np

from repro import MB, PDCConfig, PDCSystem, Strategy
from repro.query import AsyncQueryClient, explain
from repro.query.api import (
    PDCquery_and,
    PDCquery_create,
    PDCquery_get_nhits,
    PDCquery_get_selection,
    PDCquery_set_region,
)
from repro.query.region_constraint import HyperSlab


def build_system():
    rng = np.random.default_rng(21)
    system = PDCSystem(
        PDCConfig(n_servers=8, region_size_bytes=4 * MB, virtual_scale=64.0)
    )
    n = 1 << 18
    energy = (1.05 * rng.weibull(4.0, n)).astype(np.float32)
    energy[n // 2 : n // 2 + n // 32] += rng.exponential(0.3, n // 32).astype(
        np.float32
    ) + 1.0
    x = (rng.random(n) * 300).astype(np.float32)
    eo = system.create_object("Energy", energy)
    xo = system.create_object("x", x)
    system.build_index("Energy")
    system.build_sorted_replica("Energy", ["x"])
    return system, eo, xo


def demo_auto_and_explain(system, eo, xo):
    print("=" * 70)
    print("1. cost-based AUTO strategy + EXPLAIN")
    q = PDCquery_and(
        PDCquery_create(system, eo.meta.object_id, ">", "float", 2.2),
        PDCquery_create(system, xo.meta.object_id, "<", "float", 200.0),
    )
    print(explain(system, q.node))
    q.strategy = Strategy.AUTO
    n = PDCquery_get_nhits(q)
    print(f"AUTO executed as {q.last_result.strategy.paper_label}: "
          f"{n:,} hits in {q.last_result.elapsed_s * 1e3:.2f} simulated ms")


def demo_async(system, eo):
    print("=" * 70)
    print("2. asynchronous client (§III-C)")
    with AsyncQueryClient(system) as client:
        futures = {
            v: client.submit(
                PDCquery_create(system, eo.meta.object_id, ">", "float", v).node
            )
            for v in (1.0, 1.5, 2.0, 2.5)
        }
        print("  submitted 4 queries; doing other work while servers process ...")
        results = {v: f.result(timeout=30) for v, f in futures.items()}
    for v, res in results.items():
        print(f"  Energy > {v}: {res.nhits:>8,} hits  ({res.elapsed_s * 1e3:.2f} ms)")


def demo_hyperslab():
    print("=" * 70)
    print("3. 2-D object + hyperslab constraint")
    rng = np.random.default_rng(3)
    system = PDCSystem(PDCConfig(n_servers=4, region_size_bytes=256 * 1024))
    grid = rng.random((512, 512)).astype(np.float32)
    obj = system.create_object("temperature", grid)
    print(f"  imported a {obj.meta.dims} grid ({obj.n_regions} regions)")
    q = PDCquery_create(system, obj.meta.object_id, ">", "float", 0.999)
    slab = HyperSlab(shape=(512, 512), ranges=((100, 300), (200, 400)))
    PDCquery_set_region(q, slab)
    sel = PDCquery_get_selection(q)
    rows, cols = sel.coords_nd((512, 512))
    print(f"  {sel.nhits} hotspots inside {slab}")
    if sel.nhits:
        print(f"  first at grid cell ({rows[0]}, {cols[0]})")


def demo_failures(system, eo):
    print("=" * 70)
    print("4. fault tolerance")
    from repro.query.executor import QueryEngine
    from repro.query.ast import Condition
    from repro.types import PDCType, QueryOp

    engine = QueryEngine(system)
    node = Condition("Energy", QueryOp(">"), PDCType.FLOAT, 2.0)
    baseline = engine.execute(node).nhits
    system.metadata.checkpoint()
    system.fail_server(3)
    system.fail_server(5)
    after = engine.execute(node)
    print(f"  2 of 8 servers failed: answers unchanged "
          f"({after.nhits:,} == {baseline:,}), "
          f"{len(system.alive_servers)} servers carried the query")
    system.recover_server(3)
    system.recover_server(5)
    system.metadata.restore()
    print(f"  recovered; metadata restored from checkpoint "
          f"({len(system.metadata)} objects)")


def demo_report(system):
    print("=" * 70)
    print("5. deployment status report")
    from repro.pdc import report

    print(report(system, top_servers=4))


if __name__ == "__main__":
    system, eo, xo = build_system()
    demo_auto_and_explain(system, eo, xo)
    demo_async(system, eo)
    demo_hyperslab()
    demo_failures(system, eo)
    demo_report(system)
