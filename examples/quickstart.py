#!/usr/bin/env python
"""Quickstart: import an array as a PDC object and query it.

Walks the basic PDC-Query workflow from the paper's Fig. 1 API:
create a query condition, combine conditions, count hits, retrieve the
matching coordinates, and load the matching values.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    MB,
    PDCConfig,
    PDCSystem,
    PDCquery_and,
    PDCquery_create,
    PDCquery_get_data,
    PDCquery_get_histogram,
    PDCquery_get_nhits,
    PDCquery_get_selection,
)


def main() -> None:
    # A small deployment: 8 simulated PDC servers, 1 MB regions.
    system = PDCSystem(PDCConfig(n_servers=8, region_size_bytes=64 * 1024))

    # Some science-ish data: 1M particle energies — a thermal bulk plus
    # a spatially-clustered energetic stretch (as in reconnection data).
    rng = np.random.default_rng(7)
    energy = (1.05 * rng.weibull(4.0, 1_000_000)).astype(np.float32)
    energy[500_000:540_000] += rng.exponential(0.3, 40_000).astype(np.float32) + 1.0
    obj = system.create_object("Energy", energy, container="demo")
    print(f"imported {obj.n_elements:,} elements into {obj.n_regions} regions")

    # "Energy > 2.0" — the paper's introductory example.
    q = PDCquery_create(system, obj.meta.object_id, ">", "float", 2.0)
    n = PDCquery_get_nhits(q)
    print(f"Energy > 2.0 matches {n:,} elements "
          f"({n / obj.n_elements * 100:.2f}% selectivity) "
          f"in {q.last_result.elapsed_s * 1e3:.2f} simulated ms")

    # A window query: 2.0 < Energy < 2.5.
    window = PDCquery_and(
        PDCquery_create(system, obj.meta.object_id, ">", "float", 2.0),
        PDCquery_create(system, obj.meta.object_id, "<", "float", 2.5),
    )
    selection = PDCquery_get_selection(window)
    values = PDCquery_get_data(system, obj.meta.object_id, selection)
    print(f"2.0 < Energy < 2.5: {selection.nhits:,} hits, "
          f"values in [{values.min():.3f}, {values.max():.3f}]")
    print(f"  (query: {window.last_result.elapsed_s * 1e3:.2f} ms, "
          f"{window.last_result.regions_pruned} of {obj.n_regions} regions "
          "eliminated by the global histogram)")

    # The global histogram comes free with the object (§III-D2).
    hist = PDCquery_get_histogram(system, obj.meta.object_id)
    print(f"global histogram: {hist.merged.n_bins} bins of width "
          f"{hist.merged.bin_width} covering [{hist.merged.data_min:.3f}, "
          f"{hist.merged.data_max:.3f}], merged from {obj.n_regions} regions")

    # Region elimination compares each region's min/max with the condition:
    from repro import Interval
    from repro.query.planner import surviving_regions
    _, _, pruned = surviving_regions(obj, Interval(lo=2.0, hi=None, lo_closed=False))
    print(f"for 'Energy > 2.0', {pruned / obj.n_regions * 100:.0f}% of regions are "
          "eliminated without any I/O")

    # Tracing: install a Tracer (zero-cost when left at the default no-op)
    # and export a Perfetto-loadable timeline of one query.
    from repro import Tracer

    tracer = Tracer()
    system.set_tracer(tracer)
    q2 = PDCquery_create(system, obj.meta.object_id, ">", "float", 2.0)
    PDCquery_get_nhits(q2)
    tracer.write_chrome("quickstart-trace.json")
    summary = tracer.summary(q2.last_result.trace)
    top = sorted(summary.items(), key=lambda kv: -kv[1])[:3]
    print(f"trace: {len(tracer.spans)} spans -> quickstart-trace.json "
          "(open in https://ui.perfetto.dev); top categories: "
          + ", ".join(f"{k} {v * 1e3:.2f}ms" for k, v in top))


if __name__ == "__main__":
    main()
