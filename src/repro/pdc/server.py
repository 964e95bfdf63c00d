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
owning system, each storage read emits a ``storage_read`` / ``index_read``
leaf span on this server's clock — the finest-grained spans of a query
trace — replayed from the stamps of the charge pass (:meth:`touch_share`).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import RegionUnavailableError
from ..obs.monitor import NOOP_MONITOR
from ..obs.tracer import NOOP_TRACER
from ..storage.cache import RegionCache
from ..storage.costmodel import CostModel, SimClock
from ..types import GB

__all__ = ["PDCServer"]

#: Counter families a server feeds: (name, help).
_PRELOADS = ("pdc_batch_preloads_total",
             "Shared-scan batch region preloads by server and result.")
_FAULTS = ("pdc_faults_injected_total", "Faults injected by the active FaultPlan")
_RETRIES = ("pdc_fault_retries_total",
            "Storage-read retries performed during fault recovery")


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
        """Make one region resident: a storage read on a miss, free on a hit
        (scans run in place over cached buffers) unless ``hit_copy`` asks
        for a memory-copy charge (get_data materialization) — one access of
        :meth:`touch_share`, so a read still failing after its retries
        raises :class:`RegionUnavailableError`."""
        read_s = self.cost.tier_read_time(
            nbytes, n_accesses, tier, stripe_count, concurrent_readers
        )
        on_hit = (self.cost.mem_copy_time(nbytes), "mem_copy") if hit_copy else None
        (hit,) = self.touch_share([
            (key, nbytes, (read_s, category), on_hit, True, (), key, nbytes, tier),
        ])
        return hit

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
        self._count(*_PRELOADS, server=f"server{self.server_id}",
                    result="hit" if hit else "read")
        return hit

    def touch_share(
        self, accesses: Sequence[tuple], preload: bool = False, on_lost=None,
        span: Optional[Dict[str, object]] = None,
    ) -> List[Optional[bool]]:
        """One server's whole share of a plan step in two passes — the one
        body that makes regions resident.

        ``accesses`` lists, in region order, ``(key, nbytes, on_miss, on_hit,
        sampled, then, region, span_bytes, tier)``: a payload to make
        resident, the ``(seconds, category)`` of its read and of a hit
        (``None``: free), whether the monitor samples it, the charges that
        follow either way, the region it belongs to, and the ``bytes`` and
        ``tier`` (``None``: not recorded) of its ``read:`` span.  The
        residency pass runs the cache operations in order and decides each
        miss's read as it is met (:meth:`_read_attempts`); a read failing for
        good is not inserted and drops the rest of its region.  The charge
        pass makes every charge, attempts and backoffs included, in one
        :meth:`SimClock.charge_many`, hands the monitor the share's samples
        in one call, and replays the ``read:``/``retry:`` spans (inside an
        ``eval:serverN`` span with the attributes ``span``, if given, its
        ``regions`` set to the share's region count) and ``on_lost(self,
        region, error, t)`` at their stamps.  Without ``on_lost`` the first lost read ends the
        share and is raised once what came before it is charged.  Returns the
        was-cached flags, ``None`` where lost or dropped.
        """
        plan, traced = self.fault_plan, self.tracer.enabled
        keys, sizes = [a[0] for a in accesses], [a[1] for a in accesses]
        decided: List[List[float]] = []  # each decided read's slow factors
        fetch = None if plan is None else partial(self._read_attempts, decided)
        flags = self.cache.touch_many(keys, sizes, fetch)
        # A lost read ends the pass; with a policy, the rest of its region is
        # dropped and the pass resumes after it.
        while flags and flags[-1] is None and on_lost is not None:
            region = accesses[len(flags) - 1][6]
            while len(flags) < len(accesses) and accesses[len(flags)][6] == region:
                flags.append(None)
            if len(flags) == len(accesses):
                break
            flags += self.cache.touch_many(keys[len(flags):], sizes[len(flags):], fetch)
        fast, monitored, dropping = plan is None and not traced, self.monitor.enabled, None
        charges: List[Tuple[float, str]] = []
        marks: List[tuple] = []  # (charges made before it, event, *args)
        samples: List[Tuple[int, float, str]] = []  # (charges before it, nbytes, result)
        if traced and span is not None:
            span = dict(span, regions=len({a[6] for a in accesses}))
            marks.append((0, "open", f"eval:server{self.server_id}", "server_eval", span))
        for flag, access in zip(flags, accesses):
            key, nbytes, on_miss, on_hit, sampled, then, region, span_bytes, tier = access
            if flag:
                if on_hit is not None:
                    charges.append(on_hit)
            elif flag is None and region == dropping:
                continue
            elif fast:
                charges.append(on_miss)
            else:  # a read span over every attempt, a retry span per backoff
                slows = (1.0,) if plan is None else decided.pop(0)
                seconds, category = on_miss
                kind = "index_read" if category == "index_read" else "storage_read"
                attrs = {"bytes": span_bytes}
                if tier is not None:
                    attrs["tier"] = tier
                marks.append((len(charges), "open", f"read:{key}", kind, attrs))
                for attempt, slow in enumerate(slows, 1):
                    charges.append((seconds * slow, category))
                    if attempt < len(slows):
                        marks.append((len(charges), "open", f"retry:{key}", "fault",
                                      {"attempt": attempt}))
                        charges.append((plan.backoff_s(attempt), "retry_backoff"))
                        marks.append((len(charges), "close"))
                marks.append((len(charges), "close"))
                if flag is None:
                    marks.append((len(charges), "lost", region, RegionUnavailableError(
                        f"server{self.server_id}: read of {key!r} failed "
                        f"after {len(slows)} attempts"
                    )))
                    dropping = region
                    continue
            if sampled and monitored:
                samples.append((len(charges), float(nbytes), "hit" if flag else "read"))
            charges += then
        if traced and span is not None:
            marks.append((len(charges), "close"))
        if preload:
            for result, flag in (("hit", True), ("read", False)):
                self._count(*_PRELOADS, flags.count(flag),
                            server=f"server{self.server_id}", result=result)
        stamps = [self.clock.now, *self.clock.charge_many(charges)]
        if samples:
            self.monitor.on_region_read(
                self.server_id, [(stamps[n], nbytes, result) for n, nbytes, result in samples]
            )
        opened, error = [], None
        for n_charged, event, *args in marks:
            at = stamps[n_charged]
            if event == "open":
                opened.append(self.tracer.open_at(at, args[0], self.clock.name, args[1],
                                                  **args[2]))
            elif event == "close":
                self.tracer.close_at(opened.pop(), at)
            elif on_lost is not None:
                on_lost(self, args[0], args[1], at)
            else:
                error = args[1]  # raised once the share's spans are closed
        if error is not None:
            raise error
        return flags

    def _read_attempts(self, decided: List[List[float]], key: str) -> bool:
        """Decide one storage read of ``key`` under the fault plan, attempt
        by attempt: a latency-spike factor (a retry is a fresh request, so
        it is re-drawn), then a failure draw, retried after a backoff until
        ``max_retries`` are spent.  A draw is a pure function of the seed,
        the key and its count, so deciding before any charge replays
        exactly.  Appends the slow factors to ``decided``; True on success."""
        plan = self.fault_plan
        slows: List[float] = []
        decided.append(slows)
        while True:
            slow = plan.pfs_slow_factor(key)
            if slow != 1.0:
                self._count(*_FAULTS, kind="pfs_slow")
            slows.append(slow)
            if not plan.pfs_read_fails(key):
                return True
            self._count(*_FAULTS, kind="pfs_read_error")
            if len(slows) > plan.config.max_retries:
                return False
            self.retries_total += 1
            self._count(*_RETRIES, server=str(self.server_id))

    def _count(self, name: str, help: str, n: int = 1, **labels: str) -> None:
        """Add ``n`` to one labelled counter of the shared registry."""
        if n and self.metrics is not None:
            self.metrics.counter(name, help, labels=tuple(labels)).labels(**labels).inc(n)

    def drop_caches(self) -> None:
        """Cold-start this server (ablation: caching on/off)."""
        self.cache.clear()
        self.meta_cached.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PDCServer(id={self.server_id}, t={self.clock.now:.4f}s, "
            f"cached={len(self.cache)})"
        )
