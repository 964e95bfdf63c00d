"""The write block: how a write's derived state is computed and installed.

Every write — an overwrite, an append — is :func:`derive_region` for each
region it touches and :func:`derive_rebuilt` for the histograms and bitmaps
it rebuilds (reading the system, changing nothing), then
:func:`commit_write` (install, invalidate, charge, and the whole-object
follow-ups).  :class:`repro.pdc.system.PDCSystem` keeps the doors
(``update_object_region``, ``append_to_object``, ``compact_region_index``)
and calls these; :class:`repro.ingest.IngestStream` batches writes into
them.  Each follow-up costs what the write changed: the histogram table
rewrites only the changed regions' rows and the global histogram trades
their old rows for the new ones
(:meth:`repro.histogram.global_hist.HistogramTable.put`), the object index
rewrites only their rows and positions and the index file only their
chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bitmap.index import ObjectIndex
from ..errors import PDCError
from ..histogram.global_hist import HistogramTable
from ..histogram.mergeable import MergeableHistogram
from ..pdc.region import region_key
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
    "derive_rebuilt",
    "derive_region",
    "extend_object",
    "handle_replica_staleness",
    "histogram_bins_for",
    "histogram_seeds",
    "install_index",
    "invalidate_region_caches",
    "rewrite_index_file",
]


@dataclass
class RegionDerived:
    """One region's derived state — histogram with its exact min/max,
    what becomes of its bitmaps — as :func:`derive_region` and
    :func:`derive_rebuilt` computed it and before anything installed it:
    the unit of the write path's compute-then-commit atomicity."""

    rid: int
    #: The values its histogram — and an indexed object's bitmaps — are
    #: rebuilt from (:func:`derive_rebuilt`), or ``None`` when both are
    #: patched.
    segment: Optional[np.ndarray] = None
    #: The patched histogram (``None`` when it is rebuilt).
    hist: Optional[MergeableHistogram] = None
    #: Elements overwritten since ``hist`` was last built from scratch.
    dirty_elements: int = 0
    #: How many more elements only an uncompacted WAH delta segment covers.
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


def histogram_seeds(obj: "StoredObject", region_ids: np.ndarray) -> np.ndarray:
    """Each region's sampling seed: its histogram's width is the same
    whenever it is rebuilt from the same values."""
    return (obj.meta.object_id * 100003 + region_ids) & 0x7FFFFFFF


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
    and a region with no histogram to patch (a region opened by an
    append); its histogram and an indexed object's bitmaps then wait for
    :func:`derive_rebuilt`.
    """
    count = int(segment.size)
    d = RegionDerived(rid)
    seconds: List[float] = []
    actions: List[str] = []
    lo, hi, replaced = written if written is not None else (0, 0, segment[:0])
    table = obj.meta.histograms
    known = rid < table.n_regions  # False: a region this write opens
    dirty = int(replaced.size) + (int(table.dirty[rid]) if known else 0)
    h = None
    if maintenance == "delta" and hi > lo and known and dirty < HIST_REBUILD_FRACTION * count:
        h = table.view(rid)
    patch = h is not None and h.grid_holds(segment[lo:hi])
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
        d.segment = segment
        if maintenance == "delta":
            seconds.append(system.cost.scan_time(count))
        actions.append("hist_rebuilds")

    if obj.indexes is not None:
        if patch:
            d.index_delta = hi - lo
            seconds.append(system.cost.scan_time(hi - lo))
            actions.append("index_delta_appends")
        else:
            actions.append("index_rebuilds")
    # Grouping is pinned, not principled: an overwrite's seconds have
    # always been one pre-summed charge and an append's one charge
    # each, and regrouping either moves a clock by an ulp.
    if replaced.size and seconds:
        seconds = [sum(seconds)]
    d.charges, d.actions = tuple(seconds), tuple(actions)
    return d


#: The bitmaps a write rebuilds: the region ids, their index and their
#: index-file chunks.
IndexBuild = Tuple[List[int], ObjectIndex, List[np.ndarray]]
#: What :func:`derive_rebuilt` built: the rebuilt regions' histogram rows,
#: in write order, and an indexed object's bitmaps of them (None: none).
Rebuilt = Tuple[Optional[HistogramTable], Optional[IndexBuild]]


def derive_rebuilt(
    system: "PDCSystem", obj: "StoredObject", derived: List[RegionDerived]
) -> Rebuilt:
    """Build — changing nothing — the histogram of every derived region
    that rebuilds its own and, for an indexed object, their bitmaps, each
    in one pass over them."""
    fresh = [d for d in derived if d.segment is not None]
    if not fresh:
        return None, None
    values = np.concatenate([d.segment for d in fresh])
    counts = np.array([d.segment.size for d in fresh])
    rids = [d.rid for d in fresh]
    part = HistogramTable.build(
        values, counts, histogram_seeds(obj, np.array(rids)),
        histogram_bins_for(system.config.region_size_bytes),
    )
    if obj.indexes is None:
        return part, None
    return part, (rids, *ObjectIndex.build(values, counts, INDEX_PRECISION))


def install_index(system: "PDCSystem", obj: "StoredObject", built: IndexBuild) -> None:
    """Make built bitmaps their regions' index: their rows and positions
    in the object's index, their chunks in the index file."""
    rids, part, chunks = built
    obj.indexes.put(rids, part, obj.offsets, obj.buffer.size)
    rewrite_index_file(system, obj, rids, chunks)


def commit_write(
    system: "PDCSystem", obj: "StoredObject", derived: List[RegionDerived],
    span: Tuple[int, int], rebuilt: Rebuilt = (None, None),
) -> List[int]:
    """The second half of every write of coordinates ``span``, run once
    the payload is in place and nothing can fail any more: install each
    region's derived state — the patched histograms and what
    :func:`derive_rebuilt` built — invalidate and charge on its owning
    server, then the whole-object follow-ups, each exactly once.  Returns
    the affected region ids."""
    name = obj.name
    stats = dict.fromkeys(WRITE_STATS, 0)
    affected = [d.rid for d in derived]
    part, index = rebuilt
    patched = [d for d in derived if d.segment is None]
    if patched:
        obj.meta.histograms.put([d.rid for d in patched], HistogramTable.of(
            [d.hist for d in patched], [d.dirty_elements for d in patched]))
    if part is not None:
        obj.meta.histograms.put([d.rid for d in derived if d.segment is not None], part)
    for d in derived:
        if d.index_delta:
            obj.indexes.delta[d.rid] += d.index_delta
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
    regions join it.  Nothing is re-partitioned: the extents gain an
    entry per opened region, and the histogram table a row when its
    derived state is installed."""
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
    obj.offsets = np.concatenate(
        [obj.offsets, np.array([off for _, off, _ in opened], dtype=np.int64)]
    )
    obj.counts = np.concatenate(
        [obj.counts, np.array([count for _, _, count in opened], dtype=np.int64)]
    )
    obj.counts[tail] += absorbed


def invalidate_region_caches(
    system: "PDCSystem", name: str, region_ids: Sequence[int]
) -> None:
    for server in system.servers:
        for rid in region_ids:
            server.cache.invalidate(region_key(name, rid))
            server.cache.invalidate(region_key(name, rid, replica="idx"))


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
    actions = system.metrics.counter(
        "pdc_replica_staleness_total",
        "Sorted-replica staleness actions taken on object writes",
        labels=("action",),
    ).handles()
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
        actions[action].inc()
        stats[f"replica_{action}"] = stats.get(f"replica_{action}", 0) + 1
