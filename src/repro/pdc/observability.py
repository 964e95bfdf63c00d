"""Deployment observability: a structured status report for a PDCSystem.

Production services need to answer "what is this deployment doing?"
without a debugger: per-server simulated-time breakdowns, cache hit
rates, storage traffic, object/index/replica inventory, failures.  Both a
structured snapshot (:func:`snapshot`) and a rendered text report
(:func:`report`) are provided; the CLI and examples use the latter.

Counters come from two places.  Per-server exact numbers (cache hits,
clock breakdowns) are read off the server instances themselves; the
totals the system feeds into its :class:`~repro.obs.metrics.MetricsRegistry`
(queries, planner decisions, PFS writes, cache lookups) are surfaced in
:attr:`SystemSnapshot.metrics`.  Each system counts into its own registry
unless it was handed a shared one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .system import PDCSystem

__all__ = ["ServerStats", "SystemSnapshot", "snapshot", "report"]

#: Registry counter families surfaced in a snapshot (when present).
_SNAPSHOT_METRICS = (
    "pdc_queries_total",
    "pdc_plans_total",
    "pdc_query_regions_read_total",
    "pdc_query_regions_pruned_total",
    "pdc_query_regions_cached_total",
    "pdc_query_index_reads_total",
    "pdc_query_bytes_read_virtual_total",
    "pdc_pfs_bytes_written_virtual_total",
    "pdc_cache_lookups_total",
    "pdc_cache_evictions_total",
    "pdc_batches_total",
    "pdc_semantic_cache_lookups_total",
)


@dataclass
class ServerStats:
    """One server's counters."""

    server_id: int
    alive: bool
    sim_time_s: float
    busy_s: float
    time_breakdown: Dict[str, float]
    cache_entries: int
    cache_used_vbytes: float
    cache_hit_rate: float
    objects_with_metadata: int
    #: Exact lookup counters behind ``cache_hit_rate`` (hits / lookups).
    cache_hits: int = 0
    cache_lookups: int = 0


@dataclass
class SystemSnapshot:
    """Whole-deployment counters at a point in simulated time."""

    n_servers: int
    n_alive: int
    strategy: str
    virtual_scale: float
    elapsed_s: float
    servers: List[ServerStats]
    n_objects: int
    n_regions_total: int
    indexed_objects: List[str]
    replicas: List[str]
    pfs_files: int
    pfs_bytes_stored: int
    metadata_records: int
    #: Registry counter totals (family name → summed value) at snapshot time.
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def aggregate_cache_hit_rate(self) -> float:
        """Fleet-wide hit rate weighted by each server's actual lookup
        count (a server that answered 10k lookups counts 10k times more
        than one that answered one — resident-entry counts are not a
        usage proxy)."""
        hits = sum(s.cache_hits for s in self.servers)
        lookups = sum(s.cache_lookups for s in self.servers)
        return hits / lookups if lookups else 0.0

    @property
    def load_imbalance(self) -> float:
        """max/mean busy simulated seconds across alive servers (1.0 is
        perfectly balanced)."""
        busy = [s.busy_s for s in self.servers if s.alive]
        if not busy or max(busy) == 0:
            return 1.0
        mean = sum(busy) / len(busy)
        return max(busy) / mean if mean > 0 else 1.0


#: Clock categories that are *not* work: idle barrier waits and the time
#: spent blocked inside collective rendezvous ("comm", see
#: ``SimClock.advance_to``).
_IDLE_CATEGORIES = frozenset({"wait", "comm"})


def snapshot(system: PDCSystem) -> SystemSnapshot:
    """Collect a structured status snapshot (no clock side effects)."""
    servers = []
    for s in system.servers:
        breakdown = s.clock.breakdown()
        busy = sum(v for k, v in breakdown.items() if k not in _IDLE_CATEGORIES)
        servers.append(
            ServerStats(
                server_id=s.server_id,
                alive=s.server_id not in system.crashed,
                sim_time_s=s.clock.now,
                busy_s=busy,
                time_breakdown=breakdown,
                cache_entries=len(s.cache),
                cache_used_vbytes=s.cache.used_bytes,
                cache_hit_rate=s.cache.stats.hit_rate,
                objects_with_metadata=len(s.meta_cached),
                cache_hits=s.cache.stats.hits,
                cache_lookups=s.cache.stats.hits + s.cache.stats.misses,
            )
        )
    metrics = {
        name: system.metrics.total(name)
        for name in _SNAPSHOT_METRICS
        if name in system.metrics.names()
    }
    return SystemSnapshot(
        n_servers=system.n_servers,
        n_alive=len(system.alive_servers),
        strategy=system.strategy.value,
        virtual_scale=system.cost.virtual_scale,
        elapsed_s=max(c.now for c in system.all_clocks()),
        servers=servers,
        n_objects=len(system.objects),
        n_regions_total=sum(o.n_regions for o in system.objects.values()),
        indexed_objects=sorted(
            n for n, o in system.objects.items() if o.indexes is not None
        ),
        replicas=sorted(system.replicas),
        pfs_files=len(system.pfs.listdir()),
        pfs_bytes_stored=system.pfs.total_bytes(),
        metadata_records=len(system.metadata),
        metrics=metrics,
    )


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if n < 1024 or unit == "TiB":
            return f"{n:.1f} {unit}"
        n /= 1024
    return f"{n:.1f} TiB"


def report(system: PDCSystem, top_servers: int = 8) -> str:
    """Human-readable deployment status."""
    snap = snapshot(system)
    lines = [
        f"PDC deployment: {snap.n_alive}/{snap.n_servers} servers alive, "
        f"strategy={snap.strategy}, virtual_scale={snap.virtual_scale:g}",
        f"simulated time: {snap.elapsed_s:.4f}s  "
        f"(load imbalance {snap.load_imbalance:.2f}x)",
        f"objects: {snap.n_objects} ({snap.n_regions_total} regions, "
        f"{snap.metadata_records} metadata records)",
        f"indexes: {', '.join(snap.indexed_objects) or 'none'}; "
        f"sorted replicas: {', '.join(snap.replicas) or 'none'}",
        f"storage: {snap.pfs_files} files, {_fmt_bytes(snap.pfs_bytes_stored)} stored",
        f"cache: {snap.aggregate_cache_hit_rate * 100:.1f}% aggregate hit rate "
        f"over {sum(s.cache_lookups for s in snap.servers)} lookups",
    ]
    queries = snap.metrics.get("pdc_queries_total", 0.0)
    if queries:
        lines.append(
            f"queries: {queries:.0f} executed, "
            f"{snap.metrics.get('pdc_query_regions_read_total', 0.0):.0f} regions read, "
            f"{snap.metrics.get('pdc_query_regions_pruned_total', 0.0):.0f} pruned, "
            f"{snap.metrics.get('pdc_query_index_reads_total', 0.0):.0f} index probes, "
            f"{_fmt_bytes(snap.metrics.get('pdc_query_bytes_read_virtual_total', 0.0))} "
            "virtual read"
        )
    lines.append("servers (busiest first):")
    ranked = sorted(snap.servers, key=lambda s: -s.busy_s)[:top_servers]
    for s in ranked:
        top = sorted(
            ((k, v) for k, v in s.time_breakdown.items() if k not in _IDLE_CATEGORIES),
            key=lambda kv: -kv[1],
        )[:3]
        cats = ", ".join(f"{k} {v * 1e3:.1f}ms" for k, v in top) or "idle"
        status = "" if s.alive else "  [FAILED]"
        lines.append(
            f"  server{s.server_id:<4} busy {s.busy_s * 1e3:8.2f}ms  "
            f"cache {s.cache_entries:4d} entries "
            f"({s.cache_hit_rate * 100:5.1f}% hits)  {cats}{status}"
        )
    if len(snap.servers) > top_servers:
        lines.append(f"  ... and {len(snap.servers) - top_servers} more")
    return "\n".join(lines)
