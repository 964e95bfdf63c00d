"""Ablations of the design choices DESIGN.md calls out.

Each ablation turns one mechanism off (or sweeps one knob) and measures
the query-time impact, quantifying *why* the paper's design decisions
matter:

* selectivity-ordered evaluation (§III-C/D2) on vs off, in both written
  orders (off is the related-work block index [26]);
* histogram region elimination (§III-D2) on vs off;
* server-side region caching (§VI-A) on vs off;
* get_data whole-region reads vs aggregated scattered extents (§III-E);
* per-region histogram bin count (§III-D2 uses 50–100).
"""

import numpy as np
import pytest

from conftest import run_once
from repro.bench.harness import build_vpic_system, get_vpic_dataset
from repro.bench.report import format_kv_table
from repro.pdc.system import PDCConfig, PDCSystem
from repro.query.executor import QueryEngine
from repro.strategies import Strategy
from repro.types import MB
from repro.workloads.queries import (
    QuerySpec,
    build_pdc_query,
    multi_object_queries,
    single_object_queries,
)


def fresh_system(scale, **cfg_overrides):
    ds = get_vpic_dataset(scale)
    cfg = PDCConfig(
        n_servers=scale.n_servers,
        region_size_bytes=32 * MB,
        virtual_scale=scale.virtual_scale,
        **cfg_overrides,
    )
    system = PDCSystem(cfg)
    for v in ("Energy", "x", "y", "z"):
        system.create_object(v, ds.arrays[v])
    return system


def total_query_time(system, specs, strategy=Strategy.HISTOGRAM, **engine_kwargs):
    engine = QueryEngine(system, **engine_kwargs)
    total = 0.0
    for spec in specs:
        q = build_pdc_query(system, spec)
        total += engine.execute(q.node, strategy=strategy).elapsed_s
    return total


@pytest.mark.benchmark(group="ablation")
def test_ablation_selectivity_ordering(benchmark, scale, report):
    """§III-D2: evaluating the most selective condition first, with each
    query written in the paper's order and reversed.  Ordering off is the
    related-work block index [26] (§VIII): min/max pruning and whole-region
    reads, conditions checked as written."""
    specs = multi_object_queries()
    orders = {
        "paper order": specs,
        "reversed order": [
            QuerySpec(label=s.label, conditions=tuple(reversed(s.conditions)))
            for s in specs
        ],
    }

    def run():
        return {
            label: (
                total_query_time(fresh_system(scale), written, enable_ordering=True),
                total_query_time(fresh_system(scale), written, enable_ordering=False),
            )
            for label, written in orders.items()
        }

    out = run_once(benchmark, run)
    rows = []
    for label, (on, off) in out.items():
        rows += [
            (f"{label}: ordered (paper)", f"{on * 1e3:9.2f} ms total"),
            (f"{label}: as written (block index)", f"{off * 1e3:9.2f} ms total"),
            (f"{label}: benefit", f"{off / on:9.2f}x"),
        ]
    report(
        "ablation_ordering_tiny" if scale.name == "tiny" else "ablation_ordering",
        format_kv_table(
            "Ablation: selectivity-ordered evaluation (6 multi-object queries)", rows
        ),
    )
    if scale.name != "tiny":
        on_paper, off_paper = out["paper order"]
        on_reversed, _ = out["reversed order"]
        # The planner reorders, so the written order barely matters to it.
        assert abs(on_paper - on_reversed) / max(on_paper, on_reversed) < 0.35
        assert on_paper < off_paper
        # No such check for the reversed order: written reversed, the six
        # queries can run faster than in the planner's order (data on the
        # selectivity estimates, ROADMAP item 9).


@pytest.mark.benchmark(group="ablation")
def test_ablation_region_pruning(benchmark, scale, report):
    """§III-D2: min/max region elimination."""
    specs = single_object_queries(8)

    def run():
        on = total_query_time(
            fresh_system(scale), specs, enable_pruning=True
        )
        off = total_query_time(
            fresh_system(scale), specs, enable_pruning=False
        )
        return on, off

    on, off = run_once(benchmark, run)
    report(
        "ablation_pruning",
        format_kv_table(
            "Ablation: histogram region elimination (8 energy windows)",
            [
                ("pruning on (paper)", f"{on * 1e3:9.2f} ms total"),
                ("pruning off", f"{off * 1e3:9.2f} ms total"),
                ("benefit", f"{off / on:9.2f}x"),
            ],
        ),
    )
    if scale.name != "tiny":
        assert on < off


@pytest.mark.benchmark(group="ablation")
def test_ablation_server_caching(benchmark, scale, report):
    """§VI-A: the sequential-query caching effect."""
    specs = single_object_queries(8)

    def run():
        system = fresh_system(scale)
        warm = total_query_time(system, specs)
        system2 = fresh_system(scale)
        engine = QueryEngine(system2)
        cold = 0.0
        for spec in specs:
            system2.drop_all_caches()
            q = build_pdc_query(system2, spec)
            cold += engine.execute(q.node, strategy=Strategy.HISTOGRAM).elapsed_s
        return warm, cold

    warm, cold = run_once(benchmark, run)
    report(
        "ablation_caching",
        format_kv_table(
            "Ablation: server region caching across a query sequence",
            [
                ("caches kept (paper)", f"{warm * 1e3:9.2f} ms total"),
                ("caches dropped per query", f"{cold * 1e3:9.2f} ms total"),
                ("benefit", f"{cold / warm:9.2f}x"),
            ],
        ),
    )
    assert warm < cold


@pytest.mark.benchmark(group="ablation")
def test_ablation_get_data_aggregation(benchmark, scale, report):
    """§III-E: whole-region reads vs scattered aggregated extents."""
    spec = single_object_queries(8)[4]

    def run():
        out = {}
        for label, whole in (("whole-region reads (paper)", True), ("aggregated extents", False)):
            system = fresh_system(scale, get_data_whole_regions=whole)
            system.build_index("Energy")
            engine = QueryEngine(system)
            q = build_pdc_query(system, spec)
            res = engine.execute(q.node, strategy=Strategy.HIST_INDEX)
            gd = engine.get_data(res.selection, "Energy", strategy=Strategy.HIST_INDEX)
            out[label] = gd.elapsed_s
        return out

    out = run_once(benchmark, run)
    rows = [(k, f"{v * 1e3:9.2f} ms get-data") for k, v in out.items()]
    report("ablation_aggregation", format_kv_table(
        f"Ablation: get_data read strategy ({spec.label})", rows
    ))


@pytest.mark.benchmark(group="ablation")
def test_ablation_histogram_bins(benchmark, scale, report):
    """§III-D2 uses 50–100 bins: more bins → tighter selectivity bounds
    but larger metadata."""
    ds = get_vpic_dataset(scale)
    from repro.histogram.mergeable import MergeableHistogram
    from repro.interval import Interval

    data = ds.arrays["Energy"].astype(np.float64)
    iv = Interval(lo=2.1, hi=2.2, lo_closed=False, hi_closed=False)
    truth = int(iv.mask(data).sum())

    def run():
        rows = []
        for bins in (8, 16, 32, 64, 128, 256):
            h = MergeableHistogram.from_data(data, n_bins=bins)
            lower, upper = h.estimate_hits(iv)
            rows.append((bins, h.n_bins, lower, truth, upper, h.nbytes))
        return rows

    rows = run_once(benchmark, run)
    table = [
        (
            f"requested {req:4d} (got {got:5d})",
            f"bounds [{lo:7d}, {hi:7d}] truth {truth:7d}, {nbytes:8d} B",
        )
        for req, got, lo, truth, hi, nbytes in rows
    ]
    report("ablation_bins", format_kv_table("Ablation: histogram bin count", table))
    widths = [hi - lo for _, _, lo, _, hi, _ in rows]
    assert widths[-1] <= widths[0]  # more bins → no looser bounds


@pytest.mark.benchmark(group="ablation")
def test_ablation_histogram_type(benchmark, scale, report):
    """Why Algorithm 1: classical equal-width/-height histograms estimate
    as well per region, but cannot merge across regions without identical
    boundaries (§IV) — so a *global* histogram is only possible with the
    mergeable scheme."""
    from repro.errors import QueryError
    from repro.histogram.mergeable import MergeableHistogram
    from repro.histogram.uniform import EqualHeightHistogram, EqualWidthHistogram
    from repro.interval import Interval

    ds = get_vpic_dataset(scale)
    data = ds.arrays["Energy"].astype(np.float64)
    chunks = np.array_split(data, 64)
    iv = Interval(lo=2.1, hi=2.2, lo_closed=False, hi_closed=False)
    truth = int(iv.mask(data).sum())

    def run():
        out = {}
        for label, cls in (
            ("mergeable (Alg. 1)", MergeableHistogram),
            ("equal-width", EqualWidthHistogram),
            ("equal-height", EqualHeightHistogram),
        ):
            hists = [cls.from_data(c, n_bins=64) for c in chunks]
            lo = sum(h.estimate_hits(iv)[0] for h in hists)
            hi = sum(h.estimate_hits(iv)[1] for h in hists)
            mergeable = True
            try:
                merged = hists[0]
                for h in hists[1:]:
                    merged = merged.merge(h)
            except QueryError:
                mergeable = False
            out[label] = (lo, hi, mergeable)
        return out

    out = run_once(benchmark, run)
    rows = [
        (
            label,
            f"bounds [{lo:8d}, {hi:8d}] truth {truth:8d}, "
            f"{'mergeable' if m else 'NOT mergeable across regions'}",
        )
        for label, (lo, hi, m) in out.items()
    ]
    report("ablation_histogram_type", format_kv_table(
        "Ablation: histogram type (64 regions, 64 bins each)", rows
    ))
    assert out["mergeable (Alg. 1)"][2] is True
    assert out["equal-width"][2] is False
    assert out["equal-height"][2] is False
    lo, hi, _ = out["mergeable (Alg. 1)"]
    assert lo <= truth <= hi
