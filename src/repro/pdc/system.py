"""PDCSystem: wiring of servers, storage, metadata, objects, and replicas.

This is the deployment object a user of the library interacts with: it
owns the simulated parallel file system, the metadata service, the PDC
server fleet, and the registry of imported objects (plus their optional
bitmap indexes and sorted replicas).  The query engine
(:mod:`repro.query.executor`) operates on a system instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..bitmap.index import ObjectIndex
from ..errors import ObjectNotFoundError, PDCError, QueryError
from ..histogram.global_hist import HistogramTable
from ..ingest import maintain as write
from ..obs.metrics import Handles, MetricsRegistry
from ..obs.monitor import ServiceMonitor
from ..obs.tracer import NOOP_TRACER
from ..strategies import Strategy, strategy_from_env
from ..sorting.reorganize import SortedReplica
from ..storage.costmodel import CostModel, SimClock
from ..storage.file import HDF5_IMBALANCE, HDF5_STRIPE_COUNT, PDC_STRIPE_COUNT, ParallelFileSystem
from ..types import GB, MB, PDCType, is_count, is_index, pdc_type_of_dtype
from .container import Container
from .metadata import ObjectMeta, TagValue
from .metaserver import MetadataService
from .region import partition, region_key
from .server import PDCServer

__all__ = [
    "PDCConfig",
    "PDCSystem",
    "StoredObject",
    "ReplicaGroup",
]


@dataclass(frozen=True)
class PDCConfig:
    """Deployment configuration (the paper's experimental knobs, §V)."""

    #: Number of PDC servers (one per compute node on Cori; 64 default).
    n_servers: int = 4
    #: Region size in **virtual** bytes (the paper sweeps 4–128 MB).
    region_size_bytes: int = 32 * MB
    #: Each real element stands for this many virtual elements.
    virtual_scale: float = 1.0
    #: Per-server memory limit (§V: 64 GB), in virtual bytes.
    server_memory_bytes: float = 64 * GB
    #: Evaluation strategy; None resolves $PDC_QUERY_STRATEGY (default
    #: histogram-only, as in the paper).
    strategy: Optional[Strategy] = None
    #: get_data reads whole regions holding hits (block-index style, the
    #: PDC behaviour); False reads aggregated hit extents (ablation).
    get_data_whole_regions: bool = True
    #: What happens to a sorted replica when a covered object is written:
    #: ``"drop"`` deletes it (the pre-ingest behaviour — a sorted copy
    #: cannot be patched in place, §III-D3); ``"mark_stale"`` marks the
    #: written coordinates dirty, answered from the live payload, and
    #: re-sorts once :attr:`replica_rebuild_threshold` of the base is
    #: dirty or appended.
    replica_staleness_policy: str = "drop"
    #: Share of the replica's base, dirty or appended since the last
    #: (re)build, that triggers a re-sort.
    replica_rebuild_threshold: float = 0.25

    def __post_init__(self) -> None:
        if not is_count(self.n_servers):
            raise PDCError(
                f"n_servers must be an integer >= 1, not {self.n_servers!r}"
            )
        if self.replica_staleness_policy not in ("drop", "mark_stale"):
            raise PDCError(
                f"unknown replica_staleness_policy "
                f"{self.replica_staleness_policy!r}"
            )
        if not (0.0 < self.replica_rebuild_threshold <= 1.0):
            raise PDCError("replica_rebuild_threshold must be in (0, 1]")

    def region_elements(self, itemsize: int) -> int:
        """Real elements per region for a given element size."""
        n = int(round(self.region_size_bytes / (itemsize * self.virtual_scale)))
        if n < 1:
            raise PDCError(
                f"region_size_bytes={self.region_size_bytes} too small for "
                f"virtual_scale={self.virtual_scale} (itemsize {itemsize})"
            )
        return n


@dataclass
class StoredObject:
    """A PDC data object plus the simulator-side bookkeeping arrays."""

    meta: ObjectMeta
    #: Full payload (the real, scaled-down array): ``buffer[:n_elements]``.
    data: np.ndarray
    file_path: str
    hdf5_path: str
    #: Real elements per (non-tail) region.
    region_elements: int
    #: Per-region element offsets / counts, ascending.
    offsets: np.ndarray
    counts: np.ndarray
    #: The object's bitmap index (built by ``build_index``); its bitmaps
    #: are the index file's.
    indexes: Optional[ObjectIndex] = field(default=None, init=False)
    #: The payload's storage: elements past ``data`` are spare capacity an
    #: append writes into (a new object's buffer is its ``data``).
    buffer: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.buffer = self.data

    @property
    def name(self) -> str:
        return self.meta.name

    @property
    def n_regions(self) -> int:
        return int(self.offsets.size)

    @property
    def rmin(self) -> np.ndarray:
        """Per-region true value minima (the histogram table's)."""
        return self.meta.histograms.data_min

    @property
    def rmax(self) -> np.ndarray:
        """Per-region true value maxima (the histogram table's)."""
        return self.meta.histograms.data_max

    @property
    def n_elements(self) -> int:
        return int(self.data.size)

    @property
    def itemsize(self) -> int:
        return int(self.data.dtype.itemsize)

    def region_hits(self, coords: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(region ids, hits per region)`` of *ascending* element
        coordinates, regions holding none left out.  Regions are contiguous,
        so one boundary search per region replaces a pass over the
        coordinates — the work follows the region count, not the hit count."""
        starts = np.searchsorted(coords, self.offsets)
        hits = np.empty_like(starts)
        np.subtract(starts[1:], starts[:-1], out=hits[:-1])
        hits[-1] = coords.size - starts[-1]
        region_ids = np.flatnonzero(hits)
        return region_ids, hits[region_ids]


@dataclass
class ReplicaGroup:
    """A sorted replica (§III-D3) with its own region partitioning."""

    replica: SortedReplica
    key_file: str
    perm_file: str
    companion_files: Dict[str, str]
    region_elements: int
    offsets: np.ndarray
    counts: np.ndarray
    #: Per-region key-value extrema (contiguous, since the key is sorted).
    key_rmin: np.ndarray
    key_rmax: np.ndarray
    #: One-time reorganization cost in simulated seconds (sort + write).
    build_time_s: float = 0.0

    @property
    def n_regions(self) -> int:
        return int(self.offsets.size)

    def regions_of_run(self, start: int, stop: int) -> np.ndarray:
        """Replica region ids overlapping sorted-position run [start, stop)."""
        if stop <= start:
            return np.zeros(0, dtype=np.int64)
        first = start // self.region_elements
        last = (stop - 1) // self.region_elements
        return np.arange(first, min(last, self.n_regions - 1) + 1, dtype=np.int64)


class PDCSystem:
    """One PDC deployment: servers + storage + metadata + object registry."""

    def __init__(self, config: Optional[PDCConfig] = None, metrics=None) -> None:
        self.config = config or PDCConfig()
        #: Observability hooks.  The tracer starts as the zero-cost no-op
        #: (swap in a real one with :meth:`set_tracer`); metrics count into
        #: the registry the caller hands in, else into the deployment's own.
        self.tracer = NOOP_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: ``strategy name -> pdc_plans_total child``: the AUTO planner's
        #: decision counter, declared on the first decision.
        self.plan_decisions = Handles(lambda name: self.metrics.counter(
            "pdc_plans_total", "AUTO planner decisions, by chosen strategy.",
            labels=("strategy",),
        ).labels(strategy=name))
        #: Continuous-telemetry monitor, None until :meth:`set_monitor`
        #: installs one; each event point tests it before building a sample.
        self.monitor: Optional[ServiceMonitor] = None
        self.cost = CostModel(virtual_scale=self.config.virtual_scale)
        self.pfs = ParallelFileSystem(cost=self.cost, metrics=self.metrics)
        self.metadata = MetadataService(self.config.n_servers, self.pfs, self.cost)
        self.servers: List[PDCServer] = [
            PDCServer(
                i, self.cost, self.config.server_memory_bytes, metrics=self.metrics
            )
            for i in range(self.config.n_servers)
        ]
        for s in self.servers:
            s.tracer = self.tracer
            s.monitor = self.monitor
        self.client_clock = SimClock("client")
        #: Ids of the crashed servers; :meth:`fail_server` and
        #: :meth:`recover_server` are the only two transitions.
        self.crashed: Set[int] = set()
        #: The serving set (live servers, ascending id), the one input of
        #: routing; rebuilt on every transition, so a caller's earlier
        #: copy keeps its view.
        self._serving: Tuple[PDCServer, ...] = tuple(self.servers)
        self._cluster_events_metric = None
        #: Deterministic fault plan (:mod:`repro.faults`); None = no faults.
        self.fault_plan = None
        self.containers: Dict[str, Container] = {"default": Container("default")}
        self.objects: Dict[str, StoredObject] = {}
        #: sort-key object name → replica group.
        self.replicas: Dict[str, ReplicaGroup] = {}
        self._region_keys: Dict[Tuple[str, str], np.ndarray] = {}
        #: Listeners notified when derived query state goes stale (see
        #: :meth:`register_invalidation_hook`).  Registered by semantic
        #: selection caches.
        self._invalidation_hooks: List = []
        #: Maintenance counters of the most recent write-path call
        #: (:meth:`update_object_region` / :meth:`append_to_object`);
        #: the ingest stream aggregates these into epoch results.
        self.last_write_stats: Dict[str, int] = {}

    # ----------------------------------------------------------------- config
    @property
    def n_servers(self) -> int:
        """Provisioned server count; crashed servers still count."""
        return len(self.servers)

    @property
    def strategy(self) -> Strategy:
        if self.config.strategy is not None:
            return self.config.strategy
        return strategy_from_env()

    def all_clocks(self) -> List[SimClock]:
        return [s.clock for s in self.servers] + [self.client_clock]

    def sync_clocks(self) -> float:
        """Bulk-synchronous barrier across servers and client; returns the
        barrier instant."""
        t = max(c.now for c in self.all_clocks())
        for c in self.all_clocks():
            c.advance_to(t)
        return t

    def server_of_region(self, region_id: int) -> int:
        """The routing rule: region ``rid`` is served by
        ``serving[rid % len(serving)]`` over :attr:`alive_servers` (load-
        balanced for equal-size regions, cache-friendly across a query
        sequence, and the same rule before and after any membership
        change)."""
        serving = self._serving
        return serving[region_id % len(serving)].server_id

    def region_owner_positions(self, region_ids: np.ndarray) -> np.ndarray:
        """Vectorized routing: each region's owner as a *position* into
        :attr:`alive_servers` (the shape the executor's assignment and
        charge sites consume)."""
        return np.asarray(region_ids, dtype=np.int64) % len(self._serving)

    # ------------------------------------------------------------- membership
    @property
    def alive_servers(self) -> Tuple[PDCServer, ...]:
        """Servers currently in service, ascending by id (crashed servers
        are excluded from routing)."""
        return self._serving

    def _server_id(self, server_id) -> int:
        """``server_id`` as an int, checked before any state changes."""
        if not (is_index(server_id) and server_id < self.n_servers):
            raise PDCError(f"no server {server_id!r}")
        return int(server_id)

    def _transition(self, server_id: int, kind: str) -> None:
        """The one path both transitions take: the serving set, cache drops
        or clock catch-up, then the counter and the monitor.  A transition
        is stamped at the clock frontier."""
        t = max(c.now for c in self.all_clocks())
        self._serving = tuple(s for s in self.servers if s.server_id not in self.crashed)
        if kind == "crash":
            self.servers[server_id].drop_caches()
            self._notify_invalidation(None)
        else:
            self.servers[server_id].clock.advance_to(t)
        if self._cluster_events_metric is None:
            # Lazily declared so a deployment that never fails a server
            # renders no ``pdc_cluster_*`` family.
            self._cluster_events_metric = self.metrics.counter(
                "pdc_cluster_membership_total",
                "Cluster membership transitions by kind.",
                labels=("kind",),
            )
        self._cluster_events_metric.labels(kind=kind).inc()
        if self.monitor is not None:
            self.monitor.on_membership(
                t_s=t, server_id=server_id, kind=kind, n_serving=len(self._serving)
            )

    def fail_server(self, server_id: int) -> None:
        """Take a server out of service (crash simulation).

        Its cached regions are lost; region assignments reroute to the
        survivors.  Queries keep working because region payloads live on
        the PFS and metadata is re-distributed on demand.  At least one
        server must survive.  Failing a crashed server again re-drops its
        caches and re-signals invalidation, with no new transition.
        """
        server_id = self._server_id(server_id)
        if server_id in self.crashed:
            self.servers[server_id].drop_caches()
            self._notify_invalidation(None)
            return
        if len(self.alive_servers) <= 1:
            raise PDCError("cannot fail the last alive server")
        self.crashed.add(server_id)
        self._transition(server_id, "crash")

    def recover_server(self, server_id: int) -> None:
        """Bring a failed server back (cold caches, clock rejoins at the
        current simulated time)."""
        server_id = self._server_id(server_id)
        if server_id not in self.crashed:
            raise PDCError(f"server {server_id} is not failed")
        self.crashed.discard(server_id)
        self._transition(server_id, "recover")

    def register_invalidation_hook(self, hook) -> None:
        """Subscribe ``hook(name, regions)`` to staleness events: the
        object name and affected region ids after a write, ``(None,
        None)`` — the conservative whole-system signal — after a server
        failure."""
        if hook not in self._invalidation_hooks:
            self._invalidation_hooks.append(hook)

    def unregister_invalidation_hook(self, hook) -> None:
        if hook in self._invalidation_hooks:
            self._invalidation_hooks.remove(hook)

    def _notify_invalidation(self, name, regions=None) -> None:
        for hook in list(self._invalidation_hooks):
            hook(name, regions)

    # ------------------------------------------------------------- containers
    def create_container(self, name: str) -> Container:
        if name in self.containers:
            raise PDCError(f"container {name!r} exists")
        cont = Container(name)
        self.containers[name] = cont
        return cont

    # ---------------------------------------------------------------- objects
    def create_object(
        self,
        name: str,
        data: np.ndarray,
        tags: Optional[Dict[str, TagValue]] = None,
        container: str = "default",
    ) -> StoredObject:
        """Import a 1-D array as a PDC object.

        Partitions into regions, writes the PDC data file (wide-striped)
        and the comparison "HDF5" file (default-striped, sharing the same
        payload array — no copy), builds the histogram table of its regions
        and their merged global histogram (§III-D2: generated automatically
        when data is produced or imported), and registers metadata.
        """
        if name in self.objects:
            raise PDCError(f"object {name!r} exists")
        data = np.ascontiguousarray(data)
        if data.size == 0:
            raise PDCError("objects must be non-empty arrays")
        dims: Optional[Tuple[int, ...]] = None
        if data.ndim > 1:
            # Multi-dimensional arrays are stored flattened in C order;
            # the logical shape lives in the metadata (pdc_region_t
            # addressing resolves against it).
            dims = tuple(int(d) for d in data.shape)
            data = data.reshape(-1)
        pdc_type = pdc_type_of_dtype(data.dtype)
        data = write.check_payload(data)
        region_elems = self.config.region_elements(data.dtype.itemsize)
        extents = partition(data.size, region_elems)
        file_path = f"/pdc/data/{name}"
        hdf5_path = f"/hdf5/{name}.h5"
        self.pfs.create(file_path, data)
        self.pfs.create(
            hdf5_path, data, stripe_count=HDF5_STRIPE_COUNT, imbalance=HDF5_IMBALANCE
        )

        meta = ObjectMeta(
            name=name,
            object_id=self.metadata.allocate_object_id(),
            pdc_type=pdc_type,
            dims=dims,
            container=container,
            tags=dict(tags or {}),
        )
        obj = StoredObject(
            meta=meta,
            data=data,
            file_path=file_path,
            hdf5_path=hdf5_path,
            region_elements=region_elems,
            offsets=np.array([e[0] for e in extents], dtype=np.int64),
            counts=np.array([e[1] for e in extents], dtype=np.int64),
        )
        meta.histograms = HistogramTable.build(
            data, obj.counts, write.histogram_seeds(obj, np.arange(obj.n_regions)),
            write.histogram_bins_for(self.config.region_size_bytes),
        )
        meta.histograms.merge()
        meta.created_at = self.metadata.tick()
        self.metadata.create(meta)
        if container not in self.containers:
            self.create_container(container)
        self.containers[container].add(name)
        self.objects[name] = obj
        return obj

    def update_object_region(
        self,
        name: str,
        offset: int,
        values: np.ndarray,
        maintenance: str = "rebuild",
    ) -> List[int]:
        """Overwrite part of an object and maintain all derived state.

        Scientific data is mostly write-once-read-many (§III-D4), but PDC
        supports updates; this keeps the query structures *consistent*
        when they happen:

        * affected regions' histograms and min/max are refreshed — rebuilt
          from scratch (``maintenance="rebuild"``, the default), or
          incrementally via exact same-grid subtract/merge of the write's
          delta histograms (``"delta"``, Algorithm 1 merges as the delta
          unit) with a from-scratch rebuild once
          :data:`repro.ingest.maintain.HIST_REBUILD_FRACTION` of the region
          has been overwritten since the last rebuild;
        * the global histogram trades the written regions' old rows for
          their new ones;
        * affected regions' bitmap indexes are rebuilt (rebuild mode) or
          extended with WAH delta segments (delta mode; probes treat
          delta positions as candidates until compaction);
        * sorted replicas covering the object follow
          :attr:`PDCConfig.replica_staleness_policy`: dropped, or the
          written coordinates marked dirty (re-sorted on threshold);
        * stale cache entries on every server are invalidated.

        The write is atomic: every affected region's state is derived
        from a patched *copy* of the region before the payload, any
        derived state or any clock is touched, so a failure while
        deriving leaves the system exactly as it was — a mid-loop error
        can no longer leave clocks charged for writes whose derived state
        was never refreshed (:meth:`append_to_object` shares the rule and
        the ``derive_region`` / ``derive_rebuilt`` / ``commit_write`` steps
        of :mod:`repro.ingest.maintain`).

        Returns the affected region ids.  Write time is charged to the
        owning servers' clocks; delta-maintenance work is charged under
        ``"ingest_maint"``.
        """
        write.check_maintenance(maintenance)
        write.check_offset(offset)
        obj = self.get_object(name)
        values = write.check_payload(values, obj.data.dtype)
        stop = offset + values.size
        if stop > obj.n_elements:
            raise PDCError(
                f"update [{offset}, {stop}) out of bounds for {name!r} "
                f"({obj.n_elements} elements)"
            )
        derived = []
        for rid in range(
            offset // obj.region_elements, (stop - 1) // obj.region_elements + 1
        ):
            roff, count = int(obj.offsets[rid]), int(obj.counts[rid])
            lo, hi = max(offset, roff) - roff, min(stop, roff + count) - roff
            segment = obj.data[roff : roff + count].copy()
            segment[lo:hi] = values[roff + lo - offset : roff + hi - offset]
            # The replaced values feed the delta path's exact subtraction
            # (a view: the payload is not written until all is derived).
            replaced = obj.data[roff + lo : roff + hi]
            derived.append(
                write.derive_region(
                    self, obj, rid, segment, maintenance, written=(lo, hi, replaced),
                )
            )
        rebuilt = write.derive_rebuilt(self, obj, derived)
        # Write through (obj.data is the same array the PFS file holds).
        obj.data[offset:stop] = values
        return write.commit_write(self, obj, derived, (offset, stop), rebuilt)

    def append_to_object(
        self,
        name: str,
        values: np.ndarray,
        maintenance: str = "rebuild",
    ) -> List[int]:
        """Grow a 1-D object at the tail and maintain all derived state.

        The tail region absorbs elements up to the region size; further
        elements open new regions (with fresh histograms and — when the
        object is indexed — fresh bitmap indexes).  Under
        ``maintenance="delta"`` the grown tail's histogram is updated by
        an exact Algorithm 1 merge of the appended elements' delta
        histogram and its bitmap gains a WAH delta segment instead of a
        rebuild.  Atomic like :meth:`update_object_region`: the object
        grows only after every affected region has been derived from the
        would-be payload.  Returns the affected region ids (grown tail +
        new regions).
        """
        write.check_maintenance(maintenance)
        obj = self.get_object(name)
        if obj.meta.dims is not None:
            raise PDCError("append only supports 1-D objects")
        values = write.check_payload(values, obj.data.dtype)
        n, size = obj.n_elements, obj.n_elements + values.size
        buffer = obj.buffer
        if size > buffer.size:
            # Geometric growth: a run of appends reallocates a logarithmic
            # number of times.
            buffer = np.empty(size + size // 16, dtype=obj.data.dtype)
            buffer[:n] = obj.data
        # Past ``n`` nothing reads the buffer until the commit below moves
        # ``obj.data``'s end: a failed derivation leaves the object as it was.
        buffer[n:size] = values
        tail = obj.n_regions - 1
        tail_count = int(obj.counts[tail])
        absorbed = min(obj.region_elements - tail_count, values.size)
        # The tail fills up to the region size; the rest opens new regions.
        offsets = np.arange(n + absorbed, size, obj.region_elements, dtype=np.int64)
        opened = list(zip(
            range(tail + 1, tail + 1 + offsets.size), offsets.tolist(),
            np.minimum(size - offsets, obj.region_elements).tolist(),
        ))
        # An append is a write that replaced nothing.
        derived = [write.derive_region(
            self, obj, tail, buffer[int(obj.offsets[tail]) : n + absorbed],
            maintenance, written=(tail_count, tail_count + absorbed, values[:0]),
        )] if absorbed else []
        derived += [
            write.derive_region(self, obj, rid, buffer[off : off + count], maintenance)
            for rid, off, count in opened
        ]
        rebuilt = write.derive_rebuilt(self, obj, derived)
        write.extend_object(self, obj, buffer, size, absorbed, opened)
        return write.commit_write(self, obj, derived, (n, size), rebuilt)

    def refresh_sorted_replica(self, key_name: str) -> ReplicaGroup:
        """Re-sort a replica from the objects' current payloads, folding
        its dirty and appended coordinates into a new base.

        The rebuild cost (sort + parallel write, the same formula as the
        initial build) is charged to every alive server under
        ``"replica_rebuild"`` — unlike the initial build, refreshes
        happen *during* service and compete with queries for simulated
        time.  Refused, with nothing changed, while a covered object's
        length differs from the key's.
        """
        group = self.replicas.get(key_name)
        if group is None:
            raise PDCError(f"no sorted replica keyed by {key_name!r}")
        companions = tuple(group.replica.companions)
        n = self.get_object(key_name).n_elements
        if any(self.get_object(c).n_elements != n for c in companions):
            raise PDCError(f"cannot re-sort {key_name!r}: companions differ in length")
        self.drop_sorted_replica(key_name)
        new = self.build_sorted_replica(key_name, companions)
        for s in self.alive_servers:
            s.clock.charge(new.build_time_s, "replica_rebuild")
        return new

    def compact_region_index(self, name: str, rid: int) -> int:
        """Fold a region's WAH delta segments into a freshly built bitmap
        (background compaction).  Charges a region scan plus the index
        write to the owning server under ``"compaction"``; returns the
        number of delta elements folded in."""
        obj = self.get_object(name)
        if obj.indexes is None:
            raise QueryError(f"object {name!r} has no index")
        if not (is_index(rid) and rid < obj.n_regions):
            raise PDCError(f"object {name!r} has no region {rid!r}")
        rid = int(rid)
        roff, count = int(obj.offsets[rid]), int(obj.counts[rid])
        part, chunks = ObjectIndex.build(
            obj.data[roff : roff + count], obj.counts[rid : rid + 1], write.INDEX_PRECISION
        )
        n_delta = int(obj.indexes.delta[rid])
        write.install_index(self, obj, ([rid], part, chunks))
        server = self.servers[self.server_of_region(rid)]
        server.clock.charge(
            self.cost.scan_time(count)
            + self.cost.pfs_write_time(int(part.nbytes[0]), 1, PDC_STRIPE_COUNT),
            "compaction",
        )
        for s in self.servers:
            s.cache.invalidate(region_key(name, rid, replica="idx"))
        return n_delta

    def drop_sorted_replica(self, key_name: str) -> None:
        """Remove a sorted replica and its files/caches."""
        group = self.replicas.pop(key_name, None)
        if group is None:
            return
        for path in (group.key_file, group.perm_file, *group.companion_files.values()):
            if self.pfs.exists(path):
                self.pfs.delete(path)
        # A later replica of the same key must not read these bytes.
        for server in self.servers:
            for rid in range(group.n_regions):
                for which in ("key", "perm", *group.companion_files):
                    server.cache.invalidate(
                        region_key(key_name, rid, replica=f"sorted:{which}")
                    )
        for obj in self.objects.values():
            if obj.meta.sorted_by == key_name:
                obj.meta.sorted_by = None

    def get_object(self, name: str) -> StoredObject:
        try:
            return self.objects[name]
        except KeyError:
            raise ObjectNotFoundError(f"no object named {name!r}") from None

    def region_keys(self, name: str, replica: str, n_regions: int) -> np.ndarray:
        """Cache keys of (at least) regions ``0..n_regions-1`` of one
        (object, replica), an object array indexed by region id: each string
        is built once, not per region per touch (a key depends on the names
        alone), and a step's keys are one fancy index."""
        keys = self._region_keys.get((name, replica))
        if keys is None or keys.size < n_regions:
            have = [] if keys is None else keys.tolist()
            have += [region_key(name, rid, replica) for rid in range(len(have), n_regions)]
            keys = self._region_keys[(name, replica)] = np.array(have, dtype=object)
        return keys

    def type_of(self, name: str) -> PDCType:
        """Element type of a named object: the query gate's lookup."""
        return self.get_object(name).meta.pdc_type

    def get_object_by_id(self, object_id: int) -> StoredObject:
        for obj in self.objects.values():
            if obj.meta.object_id == object_id:
                return obj
        raise ObjectNotFoundError(f"no object with id {object_id}")

    # ----------------------------------------------------------------- indexes
    def build_index(self, name: str) -> None:
        """Build an object's bitmap index — a WAH bitmap per occupied bin
        of each region — and persist it as the object's index file, one
        chunk per region (§III-D4).  Idempotent."""
        obj = self.get_object(name)
        if obj.indexes is not None:
            return
        part, chunks = ObjectIndex.build(obj.data, obj.counts, write.INDEX_PRECISION)
        write.rewrite_index_file(self, obj, range(obj.n_regions), chunks)
        obj.indexes = part

    def index_size_bytes(self, name: str) -> int:
        """Total index-file size for one object (paper §V: 15–17 % of the
        data for VPIC)."""
        obj = self.get_object(name)
        if obj.indexes is None:
            raise QueryError(f"object {name!r} has no index")
        return int(obj.indexes.nbytes.sum())

    # ---------------------------------------------------------------- replicas
    def build_sorted_replica(self, key_name: str, companions: Sequence[str] = ()) -> ReplicaGroup:
        """Build a by-value sorted replica of ``key_name`` (and companion
        objects), §III-D3.  The one-time sort+write cost is recorded on the
        group, not charged to query clocks.  Building an existing replica
        again returns it; other companions for the same key, the key as
        its own companion or a repeated companion are refused."""
        companions = tuple(companions)
        if key_name in companions or len(set(companions)) != len(companions):
            raise PDCError(f"replica companions must be distinct and not the key: {companions}")
        group = self.replicas.get(key_name)
        if group is not None:
            if set(companions) != set(group.replica.companions):
                raise PDCError(f"replica of {key_name!r} already exists with other companions")
            return group
        key_obj = self.get_object(key_name)
        comp_data = {c: self.get_object(c).data for c in companions}
        replica = SortedReplica.build(key_name, key_obj.data, comp_data)

        region_elems = key_obj.region_elements
        extents = partition(replica.n_elements, region_elems)
        offsets = np.array([e[0] for e in extents], dtype=np.int64)
        counts = np.array([e[1] for e in extents], dtype=np.int64)
        key_rmin = replica.key_values[offsets].astype(np.float64)
        key_rmax = replica.key_values[np.minimum(offsets + counts - 1, replica.n_elements - 1)].astype(np.float64)

        key_file = f"/pdc/sorted/{key_name}/key"
        perm_file = f"/pdc/sorted/{key_name}/perm"
        self.pfs.create(key_file, replica.key_values)
        self.pfs.create(perm_file, replica.permutation)
        companion_files = {}
        for cname, cdata in replica.companions.items():
            cpath = f"/pdc/sorted/{key_name}/{cname}"
            self.pfs.create(cpath, cdata)
            companion_files[cname] = cpath

        build_time = self.cost.sort_time(replica.n_elements) + self.cost.pfs_write_time(
            replica.nbytes, 1 + len(companion_files), PDC_STRIPE_COUNT,
            self.n_servers,
        )
        group = ReplicaGroup(
            replica=replica,
            key_file=key_file,
            perm_file=perm_file,
            companion_files=companion_files,
            region_elements=region_elems,
            offsets=offsets,
            counts=counts,
            key_rmin=key_rmin,
            key_rmax=key_rmax,
            build_time_s=build_time,
        )
        self.replicas[key_name] = group
        key_obj.meta.sorted_by = key_name
        for c in companions:
            self.get_object(c).meta.sorted_by = key_name
        return group

    def replica_covering(self, object_names: Sequence[str]) -> Optional[ReplicaGroup]:
        """A replica whose key+companions cover all the given objects, if
        one exists."""
        for key_name, group in self.replicas.items():
            covered = {key_name, *group.replica.companions}
            if all(n in covered for n in object_names):
                return group
        return None

    # ------------------------------------------------------------- fault plan
    def set_fault_plan(self, plan) -> None:
        """Install a :class:`repro.faults.FaultPlan` on this system and
        every server (None uninstalls).  With no plan — or a plan whose
        rates are all zero — query costs are bit-identical to the
        pre-fault code path."""
        self.fault_plan = plan
        for s in self.servers:
            s.fault_plan = plan

    # ------------------------------------------------------------- observability
    def set_tracer(self, tracer) -> None:
        """Install a tracer (``repro.obs.Tracer`` or the no-op) on this
        system and every server; spans only *read* simulated clocks, so
        enabling tracing never changes query costs."""
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        for s in self.servers:
            s.tracer = self.tracer

    def set_monitor(self, monitor: Optional[ServiceMonitor]) -> None:
        """Install a :class:`repro.obs.monitor.ServiceMonitor` on this
        system and every server (None removes it).
        Monitor hooks only *read* simulated clocks — the instant is passed
        in by the instrumented site — so enabling monitoring never changes
        query results, costs, or engine metrics."""
        self.monitor = monitor
        for s in self.servers:
            s.monitor = self.monitor

    def drop_all_caches(self) -> None:
        for s in self.servers:
            s.drop_caches()

    def cache_stats(self) -> Dict[int, Tuple[int, int]]:
        """server id → (hits, misses)."""
        return {s.server_id: (s.cache.stats.hits, s.cache.stats.misses) for s in self.servers}
