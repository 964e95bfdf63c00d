"""PDC server processes.

§II/§V: PDC servers run in user space, one per compute node, each owning a
share of the query work.  In the simulator a :class:`PDCServer` is a
bookkeeping entity: a simulated clock, a region cache bounded by the
per-server memory limit (64 GB in the paper's runs), and the set of objects
whose metadata it has already fetched (metadata is cached after the first
distribution, §III-D2).

The query executor charges all storage/scan/network time to the server's
clock; the answer itself is computed vectorized on whole-object arrays (the
simulator holds real data), which keeps semantics exact while the cost
accounting stays per-server.  When a real tracer is installed on the
owning system, each region made resident emits a ``storage_read`` /
``index_read`` leaf span on this server's clock — the finest-grained
spans of a query trace.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from ..errors import RegionUnavailableError
from ..obs.monitor import NOOP_MONITOR
from ..obs.tracer import NOOP_TRACER
from ..storage.cache import RegionCache
from ..storage.costmodel import CostModel, SimClock
from ..types import GB

__all__ = ["PDCServer"]


class PDCServer:
    """One PDC server's simulated state."""

    def __init__(
        self,
        server_id: int,
        cost: CostModel,
        memory_limit_bytes: float = 64 * GB,
        metrics=None,
    ) -> None:
        self.server_id = server_id
        self.cost = cost
        self.clock = SimClock(f"server{server_id}")
        #: Region payload cache (keys from :func:`repro.pdc.region.region_key`);
        #: capacity is in *virtual* (paper-scale) bytes.
        self.cache = RegionCache(
            memory_limit_bytes,
            virtual_scale=cost.virtual_scale,
            metrics=metrics,
            owner=f"server{server_id}",
        )
        #: Object names whose region metadata + global histogram this server
        #: has cached (charged once, on first use).
        self.meta_cached: Set[str] = set()
        #: Tracer shared with the owning system (swapped by
        #: :meth:`PDCSystem.set_tracer`); the default no-op records nothing.
        self.tracer = NOOP_TRACER
        #: Monitor shared with the owning system (swapped by
        #: :meth:`PDCSystem.set_monitor`); the default no-op records nothing.
        self.monitor = NOOP_MONITOR
        #: Fault plan shared with the owning system (installed by
        #: :meth:`PDCSystem.set_fault_plan`); None means no injection and
        #: leaves every charge bit-identical to the pre-fault code path.
        self.fault_plan = None
        self.metrics = metrics
        #: Read retries this server has performed (fault recovery).
        self.retries_total = 0

    # ------------------------------------------------------------ fault layer
    def faultable_read(
        self, key: str, seconds: float, category: str = "pfs_read"
    ) -> None:
        """Charge a storage read of ``key``, subject to fault injection.

        With no plan installed this is exactly ``clock.charge(seconds)``.
        Otherwise the read may suffer a latency spike (multiplied cost) or
        fail; failures retry with exponential backoff charged to this
        server's clock, and raise :class:`RegionUnavailableError` once the
        retry budget is exhausted.
        """
        plan = self.fault_plan
        if plan is None:
            self.clock.charge(seconds, category=category)
            return
        attempt = 0
        while True:
            # Latency spikes are per *attempt*: a retry is a fresh PFS
            # request, so its slow factor is re-drawn rather than reusing
            # the first attempt's draw for every retry.  Zero-rate plans
            # never draw (``pfs_slow_factor`` short-circuits), so this
            # stays bit-identical to the no-fault path.
            slow = plan.pfs_slow_factor(key)
            if slow != 1.0:
                self._count_fault("pfs_slow")
            self.clock.charge(seconds * slow, category=category)
            if not plan.pfs_read_fails(key):
                return
            attempt += 1
            self._count_fault("pfs_read_error")
            if attempt > plan.config.max_retries:
                raise RegionUnavailableError(
                    f"server{self.server_id}: read of {key!r} failed "
                    f"after {attempt} attempts"
                )
            self.retries_total += 1
            self._count_retry()
            backoff = plan.backoff_s(attempt)
            with self.tracer.span(
                f"retry:{key}", self.clock, category="fault", attempt=attempt
            ):
                self.clock.charge(backoff, category="retry_backoff")

    def _count_fault(self, kind: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "pdc_faults_injected_total",
                "Faults injected by the active FaultPlan",
                labels=("kind",),
            ).labels(kind=kind).inc()

    def _count_retry(self) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "pdc_fault_retries_total",
                "Storage-read retries performed during fault recovery",
                labels=("server",),
            ).labels(server=str(self.server_id)).inc()

    # ----------------------------------------------------------------- caching
    def ensure_region(
        self,
        key: str,
        nbytes: int,
        n_accesses: int,
        stripe_count: int,
        concurrent_readers: int,
        category: str = "pfs_read",
        hit_copy: bool = False,
        tier: str = "disk",
    ) -> bool:
        """Charge for making a region resident: a PFS read on miss; free on
        a hit (scans run in place over cached buffers) unless ``hit_copy``
        asks for a memory-copy charge (get_data materialization).  The
        per-region body — fault draws, retries, a ``read:`` span — of what
        :meth:`touch_share` does for a whole share at once.
        """
        if self.cache.lookup(key):
            if hit_copy:
                self.clock.charge(self.cost.mem_copy_time(nbytes), category="mem_copy")
            # Warm-cache traffic must stay visible to the time-series
            # utilization view; ``result="hit"`` keeps it separable from
            # actual PFS reads.
            self.monitor.on_region_read(
                self.clock.now, self.server_id, float(nbytes), category, result="hit"
            )
            return True
        read_time = self.cost.tier_read_time(
            nbytes, n_accesses, tier, stripe_count, concurrent_readers
        )
        with self.tracer.span(
            f"read:{key}", self.clock, bytes=nbytes, tier=tier,
            category="index_read" if category == "index_read" else "storage_read",
        ):
            self.faultable_read(key, read_time, category=category)
        self.cache.put(key, nbytes=nbytes)
        self.monitor.on_region_read(
            self.clock.now, self.server_id, float(nbytes), category, result="read"
        )
        return False

    def preload_region(
        self,
        key: str,
        nbytes: int,
        stripe_count: int,
        concurrent_readers: int,
        tier: str = "disk",
    ) -> bool:
        """Shared-scan batch preload: make ``key`` resident on behalf of a
        whole query batch.  Charging is identical to :meth:`ensure_region`
        (so a preloaded region costs exactly what the first demanding query
        would have paid); exists so preloads show up under their own
        metric.  Returns True when the region was already resident.
        """
        hit = self.ensure_region(
            key, nbytes, 1, stripe_count, concurrent_readers, tier=tier
        )
        self._count_preloads("hit" if hit else "read", 1)
        return hit

    def _count_preloads(self, result: str, n: int) -> None:
        if n and self.metrics is not None:
            self.metrics.counter(
                "pdc_batch_preloads_total",
                "Shared-scan batch region preloads by server and result.",
                labels=("server", "result"),
            ).labels(server=f"server{self.server_id}", result=result).inc(n)

    def touch_share(self, accesses: Sequence[tuple], preload: bool = False) -> List[bool]:
        """One server's whole share of a plan step in two passes, for when
        no fault plan is installed and the tracer is the no-op (nothing here
        draws a fault or opens a ``read:`` span; :meth:`ensure_region` does).

        ``accesses`` lists, in the per-region loop's order, ``(key, nbytes,
        on_miss, on_hit, is_data, then)``: a payload to make resident, the
        ``(seconds, category)`` a miss and a hit charge (``None``: free),
        whether it is a data region — what ``ensure_region`` samples for the
        monitor and ``preload`` counts — and the charges that follow either
        way.  Residency first: the loop's cache operations in the loop's
        order (the cache never reads the clock, so it may run ahead); then
        every charge as one sequence.  Returns the was-cached flags.
        """
        hits = self.cache.touch_many([a[0] for a in accesses], [a[1] for a in accesses])
        sampled = self.monitor.enabled
        charges: List[Tuple[float, str]] = []
        reads = []
        for hit, (_, nbytes, on_miss, on_hit, is_data, then) in zip(hits, accesses):
            charge = on_hit if hit else on_miss
            if charge is not None:
                charges.append(charge)
            if is_data and sampled:
                reads.append((len(charges), nbytes, hit))
            charges += then
        stamps = [self.clock.now, *self.clock.charge_many(charges)]
        for n_charged, nbytes, hit in reads:
            self.monitor.on_region_read(
                stamps[n_charged], self.server_id, float(nbytes), "pfs_read",
                result="hit" if hit else "read",
            )
        if preload:
            n_hit = sum(hits)
            self._count_preloads("hit", n_hit)
            self._count_preloads("read", len(hits) - n_hit)
        return hits

    def drop_caches(self) -> None:
        """Cold-start this server (ablation: caching on/off)."""
        self.cache.clear()
        self.meta_cached.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PDCServer(id={self.server_id}, t={self.clock.now:.4f}s, "
            f"cached={len(self.cache)})"
        )
