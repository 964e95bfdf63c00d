"""Answer kernels: the exact hit coordinates of a condition on live data.

Three structures answer a range condition, and the engine and the
semantic selection cache call the same code for them:

* a **region run** (:func:`mask_coords`): adjacent surviving regions of
  one kind coalesce into runs; a run of covered regions is every
  coordinate in it, any other run is masked — PDC-F/H's scan;
* a **probed bin run** (:func:`index_coords`): the bins a condition
  overlaps are one run of the index's bin-ordered positions; full bins'
  members match, the two end bins' are checked — PDC-HI (§III-D4);
* a **sorted-replica run** (:func:`run_coords`): a binary search gives the
  contiguous run of sorted positions whose key matches, and the run's
  permutation slice, sorted, is the answer — PDC-SH (§III-D3).  The
  sorted base is exact outside the coordinates written since its build
  and the live payload inside them, so :func:`replica_coords` adds the
  dirty coordinates whose live values match to the run's clean ones.

:func:`filter_coords` re-checks candidates of a later AND step, and
:func:`interval_coords` answers one interval over an object with the
cheaper of the two kernels, counted in elements.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..interval import Interval
from ..pdc.system import PDCSystem, StoredObject
from ..sorting import SortedReplica
from .planner import COVERED, STRADDLING, surviving_regions

__all__ = [
    "REPLICA_RUN_SHARE",
    "filter_coords",
    "index_coords",
    "interval_coords",
    "mask_coords",
    "replica_coords",
    "run_coords",
]

#: A replica run answers :func:`interval_coords` while its length is below
#: this share of the elements a region-run scan would mask.  Sorting a run
#: of k coordinates costs O(k log k), masking costs O(straddling elements);
#: on a 1 Mi float32 object the two cross near a fifth (DESIGN.md §5, "A
#: cached answer costs what it returns").
REPLICA_RUN_SHARE = 0.2

_INT32_MAX = np.iinfo(np.int32).max


def mask_coords(
    obj: StoredObject, interval: Interval, constraint: Tuple[int, int],
    region_ids: np.ndarray, covered: np.ndarray,
) -> np.ndarray:
    """Exact hit coordinates of one condition inside the given ascending
    regions, clipped to the constraint.  Adjacent regions of one kind
    coalesce into runs: a run of covered regions (``covered``, aligned
    with ``region_ids``) is every coordinate in it, and only the other
    runs are masked.  Every region of the constraint, none covered, is
    one run: the whole window."""
    if region_ids.size == 0:
        return np.zeros(0, dtype=np.int64)
    cstart, cstop = constraint
    breaks = np.flatnonzero(
        (np.diff(region_ids) != 1) | (covered[1:] != covered[:-1])
    ) + 1
    heads = np.concatenate(([0], breaks))
    firsts = region_ids[heads]
    lasts = region_ids[np.concatenate((breaks - 1, [-1]))]
    starts = np.maximum(obj.offsets[firsts], cstart).tolist()
    stops = np.minimum(obj.offsets[lasts] + obj.counts[lasts], cstop).tolist()
    parts = []
    for lo, hi, whole in zip(starts, stops, covered[heads].tolist()):
        if whole:
            parts.append(np.arange(lo, hi, dtype=np.int64))
        else:
            hits = np.flatnonzero(interval.mask(obj.data[lo:hi]))
            hits += lo
            parts.append(hits)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def index_coords(
    obj: StoredObject, interval: Interval, constraint: Tuple[int, int],
    region_ids: np.ndarray, covered: np.ndarray,
) -> np.ndarray:
    """:func:`mask_coords`'s answer, read from the probed bins where that
    is cheaper: a straddling region whose index is current (no uncompacted
    delta, as long as the region), whose type embeds in float64 (bin
    extrema are exact) and whose overlapped bins hold fewer than
    :data:`REPLICA_RUN_SHARE` of its elements answers from its bin-ordered
    positions — full bins' members are hits, the two boundary bins'
    members are checked on the raw values.  Other regions are masked."""
    straddling = np.flatnonzero(~covered)
    if not straddling.size or obj.data.dtype.itemsize > 4 and obj.data.dtype.kind != "f":
        return mask_coords(obj, interval, constraint, region_ids, covered)
    rids = region_ids[straddling]
    table = obj.indexes
    bin_min, bin_max = table.bin_min[rids], table.bin_max[rids]
    overlap = interval.overlaps_range_arrays(bin_min, bin_max)
    # The overlapped bins are contiguous in bin order: [first, last], and
    # every bin strictly between the two is full.
    rows = np.arange(rids.size)
    first = overlap.argmax(axis=1)
    last = overlap.shape[1] - 1 - overlap[:, ::-1].argmax(axis=1)
    found = overlap[rows, first]  # else no bin overlaps: no hit
    lo = table.bin_starts[rids, first]
    hi = np.where(found, table.bin_starts[rids, last] + table.bin_counts[rids, last], lo)
    counts = obj.counts[rids]
    use = ((table.n_elements[rids] == counts) & (table.delta[rids] == 0)
           & (hi - lo < REPLICA_RUN_SHARE * counts))
    if not use.any():
        return mask_coords(obj, interval, constraint, region_ids, covered)
    scan = np.ones(region_ids.size, dtype=bool)
    scan[straddling[use]] = False
    coords = mask_coords(obj, interval, constraint, region_ids[scan], covered[scan])
    use &= found
    rows, first, last, lo, hi, rids = (
        rows[use], first[use], last[use], lo[use], hi[use], rids[use]
    )
    # A partial end bin's members are checked.
    head = np.where(interval.contains_range_arrays(bin_min[rows, first], bin_max[rows, first]),
                    0, table.bin_counts[rids, first])
    tail = np.where(interval.contains_range_arrays(bin_min[rows, last], bin_max[rows, last])
                    | (last == first), 0, table.bin_counts[rids, last])
    base = obj.offsets[rids]
    sure = _gather(obj, base, lo + head, hi - tail - lo - head)
    check = _gather(obj, np.concatenate((base, base)),
                    np.concatenate((lo, hi - tail)), np.concatenate((head, tail)))
    hits = np.concatenate((sure, check[interval.mask(obj.data[check])]))
    cstart, cstop = constraint
    if cstart > 0 or cstop < obj.n_elements:
        hits = hits[(hits >= cstart) & (hits < cstop)]
    hits.sort()
    if coords.size:  # two ascending runs: the stable sort (a merge sort) merges them
        hits = np.concatenate((coords, hits))
        hits.sort(kind="stable")
    return hits


def _gather(
    obj: StoredObject, base: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """The coordinates at ``[starts[i], starts[i] + lengths[i])`` of the
    bin-ordered positions of the region at payload offset ``base[i]``."""
    total = int(lengths.sum())
    if not total:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    at = np.arange(total) + np.repeat(base + starts - (ends - lengths), lengths)
    return obj.indexes.positions[at] + np.repeat(base, lengths)


def run_coords(
    replica: SortedReplica, start: int, stop: int,
    keep: Optional[np.ndarray] = None,
    constraint: Optional[Tuple[int, int]] = None,
) -> np.ndarray:
    """Ascending original coordinates of the sorted run ``[start, stop)``:
    the permutation slice — only its ``keep`` positions, when given —
    without the dirty coordinates, clipped to the constraint and sorted."""
    coords = replica.original_coords(start, stop)
    if keep is not None:
        coords = coords[keep]
    if replica.dirty.size:
        coords = coords[~replica.dirty_mask[coords]]
    if constraint is not None:
        cstart, cstop = constraint
        if cstart > 0 or cstop < replica.n_elements:
            coords = coords[(coords >= cstart) & (coords < cstop)]
    # Sorted as 32-bit integers where they fit: twice as fast as 64-bit.
    narrow = np.int32 if replica.n_elements <= _INT32_MAX else np.int64
    coords = coords.astype(narrow)  # a copy, sorted in place
    coords.sort()
    return coords.astype(np.int64, copy=False)


def filter_coords(
    obj: StoredObject, interval: Interval, coords: np.ndarray,
    hits: Optional[np.ndarray], states: Optional[np.ndarray],
) -> np.ndarray:
    """Candidate re-check: keep the ascending ``coords`` whose value
    matches.  ``states`` gives each candidate region (``hits`` coordinates
    each) its :func:`~repro.query.planner.region_states` outcome: the
    coordinates of a covered region are kept and those of a pruned one
    dropped without a look at their values; only straddling regions'
    values are gathered.  ``None``: every region straddles."""
    if states is None or (states == STRADDLING).all():
        return coords[interval.mask(obj.data[coords])]
    per_coord = np.repeat(states, hits)
    keep = per_coord == COVERED
    check = np.flatnonzero(per_coord == STRADDLING)
    keep[check] = interval.mask(obj.data[coords[check]])
    return coords[keep]


def replica_coords(
    replica: SortedReplica, checks: Sequence[Tuple[StoredObject, Interval]],
    start: int, stop: int, keep: Optional[np.ndarray] = None,
    constraint: Optional[Tuple[int, int]] = None,
    dirty: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The one answer rule for a replica range: the clean coordinates of
    the run (:func:`run_coords`) plus the ascending ``dirty`` candidates —
    every dirty coordinate of the live objects when ``None`` — whose live
    values match every ``(object, interval)`` check."""
    coords = run_coords(replica, start, stop, keep, constraint)
    if dirty is None:
        dirty = replica.dirty_coords(checks[0][0].n_elements)
    if not dirty.size:
        return coords
    if constraint is not None:
        dirty = dirty[(dirty >= constraint[0]) & (dirty < constraint[1])]
    for obj, interval in checks:
        dirty = dirty[interval.mask(obj.data[dirty])]
    if not dirty.size:
        return coords
    coords = np.concatenate((coords, dirty))
    # Two ascending runs: the stable sort (a merge sort) merges them.
    coords.sort(kind="stable")
    return coords


def interval_coords(
    system: PDCSystem, obj: StoredObject, interval: Interval,
    constraint: Optional[Tuple[int, int]] = None,
    run: Optional[Tuple[int, int]] = None,
) -> np.ndarray:
    """The exact ascending coordinates of ``interval`` over ``obj``'s live
    payload within ``constraint`` (None: all of it).  A replica keyed by
    the object answers (:func:`replica_coords`; ``run`` is its sorted run,
    when already searched) while its run plus its dirty coordinates are
    fewer than :data:`REPLICA_RUN_SHARE` of the elements in straddling
    regions; otherwise — no replica, or the object only a companion of
    another's — the survivors' region runs answer."""
    survivors, covered, _ = surviving_regions(obj, interval, constraint)
    group = system.replicas.get(obj.name)
    if group is not None:
        replica = group.replica
        straddling = int(obj.counts[survivors[~covered]].sum())
        start, stop = run or replica.search_range(
            interval.lo, interval.hi, interval.lo_closed, interval.hi_closed
        )
        dirty = replica.dirty_coords(obj.n_elements)
        if stop - start + dirty.size < REPLICA_RUN_SHARE * straddling:
            return replica_coords(replica, [(obj, interval)], start, stop,
                                  constraint=constraint, dirty=dirty)
    constraint = constraint or (0, obj.n_elements)
    return mask_coords(obj, interval, constraint, survivors, covered)
