"""The write block: how a write's derived state is computed and installed.

Every write — an import's histograms, an overwrite, an append — is
:func:`derive_region` for each region it touches and :func:`derive_index`
for the bitmaps it rebuilds (reading the system, changing nothing), then
:func:`commit_write` (install, invalidate, charge, and the whole-object
follow-ups).  :class:`repro.pdc.system.PDCSystem` keeps the doors
(``update_object_region``, ``append_to_object``, ``compact_region_index``)
and calls these; :class:`repro.ingest.IngestStream` batches writes into
them.  Each follow-up costs what the write changed: the global histogram
swaps only the changed regions' operands
(:meth:`repro.histogram.mergeable.MergeableHistogram.replaced`), the
object index only their rows and positions and the index file only their
chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bitmap.index import ObjectIndex
from ..errors import PDCError
from ..histogram.global_hist import GlobalHistogram
from ..histogram.mergeable import MergeableHistogram
from ..pdc.region import RegionMeta, region_key
from ..storage.file import HDF5_IMBALANCE, HDF5_STRIPE_COUNT, PDC_STRIPE_COUNT
from ..types import MB, is_index

if TYPE_CHECKING:
    from ..pdc.system import PDCSystem, StoredObject

__all__ = [
    "HIST_REBUILD_FRACTION",
    "INDEX_PRECISION",
    "MAX_MAGNITUDE",
    "RegionDerived",
    "WRITE_STATS",
    "check_maintenance",
    "check_offset",
    "check_payload",
    "commit_write",
    "derive_index",
    "derive_region",
    "extend_object",
    "handle_replica_staleness",
    "histogram_bins_for",
    "install_index",
    "install_region",
    "invalidate_region_caches",
    "remerge_global_histogram",
    "rewrite_index_file",
]


@dataclass
class RegionDerived:
    """One region's derived state — histogram with its exact min/max,
    what becomes of its bitmaps — as :func:`derive_region` computed it and
    before anything installed it: the unit of the write path's
    compute-then-commit atomicity.  A part left ``None`` stands as it is."""

    rid: int
    hist: Optional[MergeableHistogram] = None
    #: Elements overwritten since ``hist`` was last built from scratch.
    dirty_elements: int = 0
    #: The values its bitmaps are rebuilt from (:func:`derive_index`) —
    #: or, instead, how many more elements only an uncompacted WAH delta
    #: segment covers.
    segment: Optional[np.ndarray] = None
    index_delta: int = 0
    #: ``"ingest_maint"`` seconds owed by the owning server, one charge each.
    charges: Tuple[float, ...] = ()
    #: The ``last_write_stats`` counters this derivation bumps.
    actions: Tuple[str, ...] = ()


def check_maintenance(mode: str) -> None:
    """The one test of a write-maintenance mode name."""
    if mode not in ("rebuild", "delta"):
        raise PDCError(f"unknown maintenance mode {mode!r}")


def check_offset(offset) -> None:
    """The one test of a write position (:func:`repro.types.is_index`),
    run at every door before anything is buffered, charged or written."""
    if not is_index(offset):
        raise PDCError(f"write offset must be an integer >= 0, not {offset!r}")


#: Largest magnitude a stored value may have.  Every region's and object's
#: span is then at most 2^1021, and a histogram grid over it — its ends
#: within one bin width of the extrema — stays below the largest double
#: (about 2^1024).  Only a 64-bit or wider float can exceed it.
MAX_MAGNITUDE = 2.0 ** 1020


def check_payload(values, dtype=None) -> np.ndarray:
    """The one admission test of a payload — an import or a write — run
    before any state is touched: non-empty, 1-D and — as cast to the
    object's ``dtype`` — finite (a NaN or an infinity has no histogram bin
    and would poison its region's min/max) and of magnitude at most
    :data:`MAX_MAGNITUDE` (so no span the histograms take overflows)."""
    # A value past the dtype's range casts to an infinity, which the
    # finiteness test below refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.ascontiguousarray(values, dtype=dtype)
    if values.ndim != 1 or values.size == 0:
        raise PDCError("write payload must be non-empty 1-D")
    if not np.isfinite(values).all():
        raise PDCError("payload must be finite (no NaN or infinity)")
    if values.dtype.kind == "f" and values.itemsize >= 8 and (
        values.max() > MAX_MAGNITUDE or values.min() < -MAX_MAGNITUDE
    ):
        raise PDCError("payload magnitude must be at most 2**1020")
    return values


#: A delta-maintained region's histogram is rebuilt from scratch once this
#: share of its elements has been overwritten since its last rebuild.
HIST_REBUILD_FRACTION = 0.5
#: FastBit binning precision of every bitmap index (§III-D4 default: 2).
INDEX_PRECISION = 2


def histogram_bins_for(region_size_bytes: int) -> int:
    """Per-region histogram bin count, the paper's adaptive rule over the
    virtual region size (§III-D2: *"Depending on the region size, we use 50
    to 100 bins"*): 50 bins for 4 MB regions and below, scaling to 100 for
    128 MB and above."""
    span = math.log2(max(1, region_size_bytes) / (4 * MB))
    return int(min(100, max(50, 50 + 10 * span)))


#: The maintenance counters of ``PDCSystem.last_write_stats``.
WRITE_STATS = ("hist_merges", "hist_rebuilds", "minmax_rescans",
               "index_delta_appends", "index_rebuilds")


def derive_region(
    system: "PDCSystem",
    obj: "StoredObject",
    rid: int,
    segment: np.ndarray,
    maintenance: str = "rebuild",
    written: Optional[Tuple[int, int, np.ndarray]] = None,
) -> RegionDerived:
    """Derive — reading the system, changing nothing — the state of
    region ``rid`` once it holds ``segment``.

    ``written=(lo, hi, replaced)``: the write put ``segment[lo:hi]``
    where the values ``replaced`` were (none, for an append); ``None``:
    nothing of an existing region was written.  Under
    ``"delta"`` maintenance such a region is *patched* — exact
    same-grid subtract/merge of the write's delta histograms, a WAH
    delta segment on the bitmap — until :data:`HIST_REBUILD_FRACTION` of it
    has been overwritten since its histogram was last built, or a written
    value lies so far off the histogram's grid that merging it there
    would pass :data:`repro.histogram.mergeable.MAX_BINS`.
    Everything else is built from scratch: ``"rebuild"`` maintenance
    and a region with no histogram to patch (import, a region opened by
    an append); an indexed object's bitmaps then wait for
    :func:`derive_index`.
    """
    count = int(segment.size)
    d = RegionDerived(rid)
    seconds: List[float] = []
    actions: List[str] = []
    lo, hi, replaced = written if written is not None else (0, 0, segment[:0])
    known = rid < len(obj.meta.regions)  # False: a region this write opens
    h = obj.meta.regions[rid].histogram if known else None
    dirty = int(replaced.size)
    if known and obj.hist_dirty_elements is not None:
        dirty += int(obj.hist_dirty_elements[rid])
    patch = (
        maintenance == "delta"
        and hi > lo
        and h is not None
        and dirty < HIST_REBUILD_FRACTION * count
        and h.grid_holds(segment[lo:hi])
    )
    if patch:
        base = h
        if replaced.size:
            replaced = replaced.astype(np.float64, copy=False)
            # Exact extrema: a removal can only disturb an extremum
            # when a replaced value attains it; then a charged region
            # rescan recovers the truth (otherwise the old extrema
            # stand and the merge below folds in the new values').
            extrema: Tuple[float, ...] = ()
            if (
                float(replaced.min()) <= h.data_min
                or float(replaced.max()) >= h.data_max
            ):
                extrema = (float(segment.min()), float(segment.max()))
                seconds.append(system.cost.scan_time(count))
                actions.append("minmax_rescans")
            base = h.subtract(
                MergeableHistogram.from_data_width(replaced, h.bin_width),
                *extrema,
            )
        d.hist = base.merge(
            MergeableHistogram.from_data_width(
                segment[lo:hi].astype(np.float64, copy=False), h.bin_width
            )
        )
        d.dirty_elements = dirty
        seconds.append(system.cost.scan_time(int(replaced.size) + hi - lo))
        actions.append("hist_merges")
    else:
        d.hist = MergeableHistogram.from_data(
            segment,
            n_bins=histogram_bins_for(system.config.region_size_bytes),
            seed=(obj.meta.object_id * 100003 + rid) & 0x7FFFFFFF,
        )
        if maintenance == "delta":
            seconds.append(system.cost.scan_time(count))
        actions.append("hist_rebuilds")

    if obj.indexes is not None:
        if patch:
            d.index_delta = hi - lo
            seconds.append(system.cost.scan_time(hi - lo))
            actions.append("index_delta_appends")
        else:
            d.segment = segment
            actions.append("index_rebuilds")
    # Grouping is pinned, not principled: an overwrite's seconds have
    # always been one pre-summed charge and an append's one charge
    # each, and regrouping either moves a clock by an ulp.
    if replaced.size and seconds:
        seconds = [sum(seconds)]
    d.charges, d.actions = tuple(seconds), tuple(actions)
    return d


def install_region(obj: "StoredObject", d: RegionDerived) -> None:
    """Make derived state the region's state (no charge, no follow-up)."""
    rid = d.rid
    if d.hist is not None:
        obj.meta.regions[rid].histogram = d.hist
        obj.rmin[rid], obj.rmax[rid] = d.hist.data_min, d.hist.data_max
        if obj.hist_dirty_elements is None and d.dirty_elements:
            obj.hist_dirty_elements = np.zeros(obj.n_regions, dtype=np.int64)
        if obj.hist_dirty_elements is not None:
            obj.hist_dirty_elements[rid] = d.dirty_elements
    if d.index_delta:
        obj.indexes.delta[rid] += d.index_delta


#: The bitmaps a write rebuilds, as :func:`derive_index` built them: the
#: region ids, their index and their index-file chunks.
IndexBuild = Tuple[List[int], ObjectIndex, List[np.ndarray]]


def derive_index(derived: List[RegionDerived]) -> Optional[IndexBuild]:
    """Build — changing nothing — the bitmaps of every derived region
    that rebuilds its own, in one pass over them (None: no such region)."""
    fresh = [d for d in derived if d.segment is not None]
    if not fresh:
        return None
    part, chunks = ObjectIndex.build(
        np.concatenate([d.segment for d in fresh]),
        np.array([d.segment.size for d in fresh]), INDEX_PRECISION,
    )
    return [d.rid for d in fresh], part, chunks


def install_index(system: "PDCSystem", obj: "StoredObject", built: IndexBuild) -> None:
    """Make built bitmaps their regions' index: their rows and positions
    in the object's index, their chunks in the index file."""
    rids, part, chunks = built
    obj.indexes.put(rids, part, obj.offsets, obj.buffer.size)
    rewrite_index_file(system, obj, rids, chunks)


def commit_write(
    system: "PDCSystem", obj: "StoredObject", derived: List[RegionDerived],
    span: Tuple[int, int], index: Optional[IndexBuild] = None,
) -> List[int]:
    """The second half of every write of coordinates ``span``, run once
    the payload is in place and nothing can fail any more: install each
    region's derived state, invalidate and charge on its owning server,
    then the whole-object follow-ups — the rebuilt bitmaps (``index``,
    from :func:`derive_index`) among them — each exactly once.  Returns
    the affected region ids."""
    name = obj.name
    stats = dict.fromkeys(WRITE_STATS, 0)
    affected = [d.rid for d in derived]
    for d in derived:
        install_region(obj, d)
        for action in d.actions:
            stats[action] += 1
        invalidate_region_caches(system, name, [d.rid])
        server = system.servers[system.server_of_region(d.rid)]
        for seconds in d.charges:
            server.clock.charge(seconds, "ingest_maint")
        server.clock.charge(
            system.cost.pfs_write_time(
                int(obj.counts[d.rid]) * obj.itemsize, 1, PDC_STRIPE_COUNT
            ),
            "pfs_write",
        )
    remerge_global_histogram(obj)
    # A write that only appended delta segments leaves the index file
    # as it is.
    if index is not None:
        install_index(system, obj, index)
    handle_replica_staleness(system, name, span, stats)
    system.last_write_stats = stats
    system._notify_invalidation(name, affected)
    return affected


def extend_object(
    system: "PDCSystem", obj: "StoredObject", buffer: np.ndarray, size: int,
    absorbed: int, opened: List[Tuple[int, int, int]],
) -> None:
    """An append's half of the commit, before :func:`commit_write`:
    ``buffer[:size]`` becomes the payload, the tail region grows by
    ``absorbed`` elements and the ``opened`` ``(rid, offset, count)``
    regions join it.  Nothing is re-partitioned: the per-region arrays
    gain an entry per opened region, filled in when its derived state is
    installed."""
    obj.buffer, obj.data = buffer, buffer[:size]
    # The PFS files hold the payload itself: re-created as views of the
    # grown payload, so reads resolve against it.
    for path, stripe, imbalance in (
        (obj.file_path, PDC_STRIPE_COUNT, 1.0),
        (obj.hdf5_path, HDF5_STRIPE_COUNT, HDF5_IMBALANCE),
    ):
        if system.pfs.exists(path):
            system.pfs.delete(path)
        system.pfs.create(path, obj.data, stripe_count=stripe, imbalance=imbalance)
    tail = obj.n_regions - 1
    grow = len(opened)
    obj.offsets = np.concatenate(
        [obj.offsets, np.array([off for _, off, _ in opened], dtype=np.int64)]
    )
    obj.counts = np.concatenate(
        [obj.counts, np.array([count for _, _, count in opened], dtype=np.int64)]
    )
    obj.counts[tail] += absorbed
    if grow:
        obj.meta.regions.extend(RegionMeta(rid) for rid, _, _ in opened)
        pad = np.zeros(grow)
        obj.rmin = np.concatenate([obj.rmin, pad])
        obj.rmax = np.concatenate([obj.rmax, pad])
        if obj.hist_dirty_elements is not None:
            obj.hist_dirty_elements = np.concatenate(
                [obj.hist_dirty_elements, np.zeros(grow, dtype=np.int64)])


def invalidate_region_caches(
    system: "PDCSystem", name: str, region_ids: Sequence[int]
) -> None:
    for server in system.servers:
        for rid in region_ids:
            server.cache.invalidate(region_key(name, rid))
            server.cache.invalidate(region_key(name, rid, replica="idx"))


def remerge_global_histogram(obj: "StoredObject") -> None:
    """Re-merge an object's global histogram from its (refreshed)
    region histograms (no-op for histogram-less objects)."""
    if obj.meta.global_histogram is not None:
        obj.meta.global_histogram = GlobalHistogram.build(
            {r.region_id: r.histogram for r in obj.meta.regions if r.histogram},
            previous=obj.meta.global_histogram,
        )


def rewrite_index_file(
    system: "PDCSystem", obj: "StoredObject", changed: Sequence[int],
    new: List[np.ndarray],
) -> None:
    """Persist one index file per object, one chunk per region (regions
    are extents within it, like the data file): the ``changed`` regions
    get the ``new`` chunks, every other region keeps its chunk of the
    file being replaced."""
    path = f"/pdc/index/{obj.name}"
    chunks = []
    if obj.indexes is not None:
        chunks = list(system.pfs.stat(path).chunks)
        system.pfs.delete(path)
    chunks.extend([None] * (obj.n_regions - len(chunks)))  # opened regions
    for rid, chunk in zip(changed, new):
        chunks[rid] = chunk
    system.pfs.create(path, chunks)


def handle_replica_staleness(
    system: "PDCSystem", name: str, span: Tuple[int, int], stats: Dict[str, int]
) -> None:
    """Keep every sorted replica covering a just-written object exact:
    drop it (the ``"drop"`` policy), or mark the written ``span`` dirty —
    its sorted base, and so its cached bytes, never change — and re-sort
    once dirty and appended elements reach ``replica_rebuild_threshold``
    of the base while every covered object has the key's length."""
    counter = system.metrics.counter(
        "pdc_replica_staleness_total",
        "Sorted-replica staleness actions taken on object writes",
        labels=("action",),
    )
    for key_name in list(system.replicas):
        replica = system.replicas[key_name].replica
        covered = (key_name, *replica.companions)
        if name not in covered:
            continue
        if system.config.replica_staleness_policy == "drop":
            system.drop_sorted_replica(key_name)  # invalidates its bytes
            action = "drop"
        else:
            replica.mark_dirty(*span)
            action = "mark_dirty"
            lengths = {system.objects[c].n_elements for c in covered}
            if (
                len(lengths) == 1
                and replica.dirty.size + lengths.pop() - replica.n_elements
                >= system.config.replica_rebuild_threshold * replica.n_elements
            ):
                system.refresh_sorted_replica(key_name)
                action = "rebuild"
        counter.labels(action=action).inc()
        stats[f"replica_{action}"] = stats.get(f"replica_{action}", 0) + 1
