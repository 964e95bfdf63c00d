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
trace — stamped from the running time of its share's pass (:meth:`touch_share`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import RegionUnavailableError
from ..obs.monitor import ServiceMonitor
from ..obs.tracer import NOOP_TRACER
from ..storage.cache import RegionCache
from ..storage.costmodel import CostModel, SimClock
from ..types import GB

__all__ = ["PDCServer"]

#: Counter families a server feeds: (name, help).
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
        *,
        metrics,
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
        #: Monitor shared with the owning system (installed by
        #: :meth:`PDCSystem.set_monitor`); None records nothing.
        self.monitor: Optional[ServiceMonitor] = None
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
    ) -> bool:
        """Make one region resident: a storage read on a miss, free on a hit
        (scans run in place over cached buffers) unless ``hit_copy`` asks
        for a memory-copy charge (get_data materialization) — one access of
        :meth:`touch_share`, so a read still failing after its retries
        raises :class:`RegionUnavailableError`."""
        read_s = self.cost.pfs_read_time(nbytes, n_accesses, stripe_count, concurrent_readers)
        hit_s = [self.cost.mem_copy_time(nbytes)] if hit_copy else None
        (hit,) = self.touch_share([key], [nbytes], [key], [read_s], [category], hit_s=hit_s)
        return hit

    def preload_region(
        self,
        key: str,
        nbytes: int,
        stripe_count: int,
        concurrent_readers: int,
    ) -> bool:
        """Make ``key`` resident ahead of the queries that read it: the
        one-access :meth:`ensure_region` read.  Returns True when the region
        was already resident."""
        return self.ensure_region(key, nbytes, 1, stripe_count, concurrent_readers)

    def touch_share(
        self, keys: Sequence[str], sizes: Sequence[int], regions: Sequence[object],
        miss_s: Sequence[float], miss_category: Sequence[str],
        hit_s: Optional[Sequence[Optional[float]]] = None,
        then: Sequence[Tuple[Sequence[Optional[float]], str]] = (),
        sampled: Optional[Sequence[bool]] = None, span_bytes: Optional[Sequence[int]] = None,
        rows: Optional[range] = None, on_lost=None, span: Optional[Dict[str, object]] = None,
    ) -> List[Optional[bool]]:
        """One server's share of a plan step in one pass — the one body that
        makes regions resident (DESIGN.md §5, "Charging at array speed").

        The share is parallel columns, one entry per access in region order
        (the ``rows`` of a step's columns; default: all): ``keys[i]`` of
        ``sizes[i]`` bytes in ``regions[i]``, the ``miss_s[i]`` seconds and
        ``miss_category[i]`` of its read, a hit's ``mem_copy`` seconds
        (``hit_s``), per ``(column, category)`` of ``then`` a charge made
        either way (``None``: none), the ``sampled`` accesses (default: all)
        and a ``read:`` span's ``span_bytes`` (default: sizes).
        Per access: lookup, a miss's read decided under the fault plan
        (:meth:`_read_attempts`), insert, and each charge added to the
        clock's running time, which stamps spans (inside ``eval:serverN``
        with the attributes ``span``) and samples.  A read failing for good
        goes to ``on_lost(self, region, error, t)`` and drops the rest of its
        region; without ``on_lost`` it is raised once what came before it is
        charged.  Returns the was-cached flags, ``None`` where lost or
        dropped.
        """
        plan, tracer, cache, clock = self.fault_plan, self.tracer, self.cache, self.clock
        traced, lookup, admit, resident = tracer.enabled, cache.lookup, cache.admit, cache.resident
        by_category, drag, track = clock._by_category, clock.drag, clock.name
        samples: Optional[list] = [] if self.monitor is not None else None
        flags: List[Optional[bool]] = []
        n_hit = n_miss = n_evicted = 0
        dropping = error = opened = None
        rows = range(len(keys)) if rows is None else rows
        walk_reads = plan is not None or traced  # else a miss is one charge
        now = clock._now
        if traced and span is not None:
            opened = tracer.open_at(
                now, f"eval:server{self.server_id}", track, "server_eval",
                **dict(span, regions=len(set(regions[rows.start:rows.stop]))),
            )
        try:
            for i in rows:
                key, region = keys[i], regions[i]
                if region == dropping:
                    flags.append(None)
                    continue
                dropping = seconds = None
                if key in resident and lookup(key):  # a hit refreshes its LRU place
                    n_hit += 1
                    flag: Optional[bool] = True
                    if hit_s is not None:
                        seconds, category = hit_s[i], "mem_copy"
                elif not walk_reads:
                    n_miss += 1
                    flag = False
                    n_evicted += admit(key, sizes[i])
                    seconds, category = miss_s[i], miss_category[i]
                else:  # a read span over every attempt, a retry span per backoff
                    n_miss += 1
                    slows, read = [1.0], True
                    if plan is not None:
                        slows, read = self._read_attempts(key)
                    flag = False if read else None
                    if read:
                        n_evicted += admit(key, sizes[i])
                    category = miss_category[i]
                    if traced:
                        kind = "index_read" if category == "index_read" else "storage_read"
                        read_span = tracer.open_at(
                            now, f"read:{key}", track, kind, bytes=(span_bytes or sizes)[i]
                        )
                    clock._now = now  # this path charges through the clock itself
                    for attempt, slow in enumerate(slows, 1):
                        clock.charge(miss_s[i] * slow, category)
                        if attempt < len(slows):
                            retry = traced and tracer.open_at(
                                clock.now, f"retry:{key}", track, "fault", attempt=attempt
                            )
                            clock.charge(plan.backoff_s(attempt), "retry_backoff")
                            if traced:
                                tracer.close_at(retry, clock.now)
                    now = clock.now
                    if traced:
                        tracer.close_at(read_span, now)
                    if not read:
                        flags.append(None)
                        error = RegionUnavailableError(
                            f"server{self.server_id}: read of {key!r} failed "
                            f"after {len(slows)} attempts"
                        )
                        if on_lost is None:
                            break
                        on_lost(self, region, error, now)
                        error, dropping = None, region
                        continue
                flags.append(flag)
                if seconds is not None:  # SimClock.charge, inline on the hot path
                    if not 0.0 <= seconds < math.inf:
                        raise ValueError(f"invalid charge {seconds!r} on clock {track}")
                    if drag != 1.0:
                        seconds = seconds * drag
                    now += seconds
                    by_category[category] = by_category.get(category, 0.0) + seconds
                if samples is not None and (sampled is None or sampled[i]):
                    samples.append((now, float(sizes[i]), "hit" if flag else "read"))
                for column, category in then:
                    seconds = column[i]
                    if seconds is not None:  # the same, inline
                        if not 0.0 <= seconds < math.inf:
                            raise ValueError(f"invalid charge {seconds!r} on clock {track}")
                        if drag != 1.0:
                            seconds = seconds * drag
                        now += seconds
                        by_category[category] = by_category.get(category, 0.0) + seconds
        finally:
            clock._now = now
        if opened is not None:
            tracer.close_at(opened, now)
        cache.tally(n_hit, n_miss, n_evicted)
        if samples:
            self.monitor.on_region_read(self.server_id, samples)
        if error is not None:
            raise error
        return flags

    def _read_attempts(self, key: str) -> Tuple[List[float], bool]:
        """Decide one storage read of ``key`` under the fault plan, attempt
        by attempt: a latency-spike factor (a retry is a fresh request, so
        it is re-drawn), then a failure draw, retried after a backoff until
        ``max_retries`` are spent.  A draw is a pure function of the seed,
        the key and its count, so deciding before the read's charges
        replays exactly.  Returns the attempts' slow factors and whether
        the last one succeeded."""
        plan = self.fault_plan
        slows: List[float] = []
        while True:
            slow = plan.pfs_slow_factor(key)
            if slow != 1.0:
                self._count(*_FAULTS, kind="pfs_slow")
            slows.append(slow)
            if not plan.pfs_read_fails(key):
                return slows, True
            self._count(*_FAULTS, kind="pfs_read_error")
            if len(slows) > plan.config.max_retries:
                return slows, False
            self.retries_total += 1
            self._count(*_RETRIES, server=str(self.server_id))

    def _count(self, name: str, help: str, **labels: str) -> None:
        """Add one to a labelled counter of the shared registry."""
        self.metrics.counter(name, help, labels=tuple(labels)).labels(**labels).inc()

    def drop_caches(self) -> None:
        """Cold-start this server (ablation: caching on/off)."""
        self.cache.clear()
        self.meta_cached.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PDCServer(id={self.server_id}, t={self.clock.now:.4f}s, "
            f"cached={len(self.cache)})"
        )
