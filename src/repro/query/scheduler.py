"""Batch windows and the semantic selection cache.

§VI-A measures query *sequences* and credits much of PDC's advantage to
"the caching mechanism provided by the PDC": regions read by one query
serve the next from server memory.  This module applies that observation
to *concurrent* queries:

* :class:`QueryScheduler` admits a window of queries and executes it as
  one batch (:meth:`QueryEngine.execute_batch`): each query is typed and
  planned once, and a region one query of the window reads is a server
  cache hit for every later one.

* :class:`SelectionCache` memoizes complete query answers semantically:
  ``(object, interval) → Selection``.  An entry keeps the answer's
  descriptor (hit count, domain, dirty spans) and its coordinates only
  once it is served again: a repeated interval is answered with zero I/O,
  by the live answer built once on its first repeat and by that memoized
  selection from then on; a *narrower* interval
  subsumed by a clean cached one (:meth:`Interval.covers`) is answered by
  the engine's own kernels on the live payload
  (:func:`~repro.query.kernels.interval_coords`), again with zero storage
  traffic and at a cost that follows the answer, not the superset.  A
  write reported through :meth:`PDCSystem.register_invalidation_hook`
  marks the object's entries dirty over the written spans and an append's
  growth, and the exact re-lookup repairs them over just those spans; a
  server failure clears the whole cache (conservatively — failovers
  reshuffle region ownership, and a cheap full drop is always safe).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..interval import Interval
from ..pdc.system import PDCSystem
from ..types import is_count
from .ast import QueryNode
from .executor import BatchResult, QueryEngine, QueryResult, QuerySpec
from .kernels import interval_coords
from .selection import Selection

__all__ = ["QueryScheduler", "SelectionCache", "SelectionCacheStats", "WindowRecord"]

#: LRU bound on a selection cache's entries per object.
MAX_ENTRIES_PER_OBJECT = 32

#: Hashable form of an interval: (lo, hi, lo_closed, hi_closed).
_IKey = Tuple[Optional[float], Optional[float], bool, bool]


def _interval_key(interval: Interval) -> _IKey:
    return (interval.lo, interval.hi, interval.lo_closed, interval.hi_closed)


@dataclass
class SelectionCacheStats:
    """Counters of one :class:`SelectionCache`'s lifetime."""

    hits: int = 0
    narrowed: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: Entries marked dirty by a region-scoped write (not evicted).
    marked_dirty: int = 0
    #: Dirty entries healed in place at fetch time.
    repaired: int = 0


def _frozen(coords: np.ndarray) -> np.ndarray:
    """``coords`` made read-only: a memoized answer is shared by every
    caller the cache serves it to."""
    coords.flags.writeable = False
    return coords


@dataclass
class _CachedSelection:
    interval: Interval
    #: The answer's hit count as of the put or the last build or repair of
    #: its coordinates: what a narrowing from this entry is charged.
    nhits: int
    #: The object's element count as this entry last saw it (put, then
    #: each write the hook reported).  An entry whose ``domain`` is not
    #: the live count missed a growth: it is dropped, never served.
    domain: int
    #: Element spans rewritten or appended since this entry was cached,
    #: merged (at most one span per written region).  A write anywhere in
    #: the object can add or remove hits *only* inside the written spans,
    #: so a dirty entry is healed at fetch time by re-evaluating just
    #: those spans against live data — region-aware staleness without the
    #: unsound "evict only intersecting selections" shortcut (a write can
    #: create hits in regions the cached selection never touched).
    dirty: List[Tuple[int, int]] = field(default_factory=list)
    #: The memoized answer, its coordinates read-only, once the entry is
    #: served as an exact answer; every later hit returns it.  ``None``
    #: until then: most entries are never served again, and a narrowing
    #: reads nothing of its superset but ``nhits``.
    selection: Optional[Selection] = None


def _merge_spans(spans: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Coalesce overlapping/adjacent [lo, hi) spans (sorted output)."""
    merged: List[Tuple[int, int]] = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


class SelectionCache:
    """Semantic ``(object, interval) → Selection`` memo with subsumption.

    Only *complete* (non-degraded, non-timed-out) single-object interval
    answers are cached; see :meth:`QueryEngine.execute_batch`.  Per-object
    entries are LRU-bounded (:data:`MAX_ENTRIES_PER_OBJECT`).  Thread-safe:
    the invalidation hook runs on whichever thread writes to the system,
    which need not be the scheduler's.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, "OrderedDict[_IKey, _CachedSelection]"] = {}
        self._lock = threading.Lock()
        self.stats = SelectionCacheStats()

    # ------------------------------------------------------------------- api
    def fetch(
        self, system: PDCSystem, object_name: str, interval: Interval
    ) -> Optional[Tuple[Selection, str, int]]:
        """Serve ``interval`` over ``object_name`` from the cache.

        Returns ``(selection, kind, scanned)`` where ``kind`` is ``"hit"``
        (exact interval match, ``scanned == 0``: the live answer built by
        the first hit, and that memoized selection itself from then on),
        ``"narrowed"`` (a cached superset covers the interval; ``scanned``
        is the superset's hit count, what the filter of its coordinates is
        charged), or ``"repaired"`` (an exact match
        carrying dirty spans from writes — overwritten regions, appended
        elements — was healed by re-evaluating just those spans against
        live data; ``scanned`` is the span element count).  Returns
        ``None`` on a miss.  An exact entry whose recorded domain is not
        the live element count is dropped rather than served.
        """
        with self._lock:
            found = self._lookup_locked(system, object_name, interval)
            if found is None:
                # A miss; an exact entry, if there is one, missed a growth.
                self._entries.get(object_name, {}).pop(_interval_key(interval), None)
                self.stats.misses += 1
                return None
            key, entry, exact = found
            self._entries[object_name].move_to_end(key)
            obj = system.get_object(object_name)
            if exact:
                if entry.dirty:
                    scanned = self._repair_locked(system, obj, entry)
                    self.stats.repaired += 1
                    return entry.selection, "repaired", scanned
                if entry.selection is None:
                    # The first repeat: the entry is clean with the live
                    # domain, so its answer is the live answer.
                    self._memoize(entry, interval_coords(system, obj, entry.interval))
                self.stats.hits += 1
                return entry.selection, "hit", 0
            # A clean superset with the live domain is exactly the live
            # answer of its interval, so the narrower interval's answer is
            # its exact answer on the live payload: the engine's kernels
            # compute it without gathering the superset.  The superset was
            # used (moved to the LRU end above): it must not be the entry
            # the insert below evicts.
            sel = Selection(_frozen(interval_coords(system, obj, interval)), obj.n_elements)
            self.stats.narrowed += 1
            # The narrowed answer is itself a complete answer: cache it so
            # an exact repeat costs nothing.
            self._put_locked(object_name, interval, sel)
            return sel, "narrowed", entry.nhits

    def _lookup_locked(
        self, system: PDCSystem, object_name: str, interval: Interval
    ) -> Optional[Tuple[_IKey, _CachedSelection, bool]]:
        """How ``interval`` would be served, changing nothing: ``(key,
        entry, True)`` for an exact entry that saw every growth (clean: a
        hit; dirty: a repair), ``(key, entry, False)`` for the smallest clean
        covering superset (a narrowing), ``None`` for a miss — an unknown
        object, no entry, or an exact entry that missed a growth."""
        per_obj = self._entries.get(object_name)
        if not per_obj or object_name not in system.objects:
            # Unknown object: a miss, not the cache's error to raise —
            # normal execution surfaces ObjectNotFoundError per query.
            return None
        n = system.objects[object_name].n_elements
        key = _interval_key(interval)
        entry = per_obj.get(key)
        if entry is not None:
            return (key, entry, True) if entry.domain == n else None
        # Subsumption: the smallest cached superset prices the narrowing.
        # Dirty candidates are skipped — their coordinate sets no longer
        # describe the live payload.
        best_key, best = None, None
        for cand_key, cand in per_obj.items():
            if cand.domain != n or cand.dirty or not cand.interval.covers(interval):
                continue
            if best is None or cand.nhits < best.nhits:
                best_key, best = cand_key, cand
        return None if best is None else (best_key, best, False)

    def put(self, object_name: str, interval: Interval, selection: Selection) -> None:
        """Record a complete answer.  The entry keeps its descriptor, not the
        coordinates, which die with the caller; they become read-only all
        the same, as every answer the cache hands out is."""
        _frozen(selection.coords)
        with self._lock:
            self._put_locked(object_name, interval, selection)

    def _put_locked(
        self, object_name: str, interval: Interval, selection: Selection
    ) -> None:
        per_obj = self._entries.setdefault(object_name, OrderedDict())
        key = _interval_key(interval)
        if key in per_obj:
            del per_obj[key]
        per_obj[key] = _CachedSelection(interval, selection.nhits, selection.domain_size)
        self.stats.inserts += 1
        while len(per_obj) > MAX_ENTRIES_PER_OBJECT:
            per_obj.popitem(last=False)
            self.stats.evictions += 1

    def _repair_locked(self, system: PDCSystem, obj, entry: _CachedSelection) -> int:
        """Heal a dirty entry in place: drop cached coordinates inside
        the dirty spans and re-evaluate exactly those spans against the
        live payload, over the entry's recorded (live) domain.  Returns
        the number of elements scanned (the cost the caller charges).  The
        result is bit-identical to a cold re-execution — outside the spans
        nothing changed by definition, inside them we recompute from data.
        An entry without coordinates is charged the same and memoizes the
        live answer."""
        domain = entry.domain
        spans = []
        for lo, hi in entry.dirty:
            lo = max(0, min(lo, domain))
            spans.append((lo, max(lo, min(hi, domain))))
        if entry.selection is None:
            self._memoize(entry, interval_coords(system, obj, entry.interval))
        else:
            coords = entry.selection.coords
            pieces: List[np.ndarray] = []
            prev = 0
            for lo, hi in spans:
                a = int(np.searchsorted(coords, lo, side="left"))
                b = int(np.searchsorted(coords, hi, side="left"))
                pieces.append(coords[prev:a])
                fresh = np.nonzero(entry.interval.mask(obj.data[lo:hi]))[0]
                pieces.append(fresh.astype(np.int64) + lo)
                prev = b
            pieces.append(coords[prev:])
            self._memoize(entry, np.concatenate(pieces))
        entry.dirty = []
        return sum(hi - lo for lo, hi in spans)

    @staticmethod
    def _memoize(entry: _CachedSelection, coords: np.ndarray) -> None:
        """Keep ``coords``, the entry's live answer, as its selection."""
        entry.selection = Selection(_frozen(coords), entry.domain)
        entry.nhits = entry.selection.nhits

    # ---------------------------------------------------------- invalidation
    def invalidate_object(
        self, object_name: str, spans: Optional[List[Tuple[int, int]]] = None,
        n_elements: Optional[int] = None,
    ) -> int:
        """Handle a write to ``object_name``.

        With ``spans=None`` (whole-object rewrite, or a caller without
        region information) every cached selection for the object is
        dropped — the legacy behaviour.  With element spans, entries are
        *kept* and marked dirty; they are healed lazily at fetch time by
        re-evaluating only the written spans (see :meth:`fetch`), so a
        write to region 0 no longer evicts a selection whose answer the
        cache can cheaply patch.  ``n_elements`` is the object's element
        count after the write: an entry that recorded fewer marks the
        growth ``[recorded, n_elements)`` dirty too and records the new
        count, so an append extends a cached answer instead of dropping
        it.  Spans are merged as they are marked.
        """
        with self._lock:
            if spans is None:
                per_obj = self._entries.pop(object_name, None)
                dropped = len(per_obj) if per_obj else 0
                self.stats.invalidations += dropped
                return dropped
            per_obj = self._entries.get(object_name)
            if not per_obj:
                return 0
            spans = [(int(lo), int(hi)) for lo, hi in spans]
            for entry in per_obj.values():
                marked = entry.dirty + spans
                if n_elements is not None and n_elements > entry.domain:
                    marked.append((entry.domain, int(n_elements)))
                    entry.domain = int(n_elements)
                entry.dirty = _merge_spans(marked)
            self.stats.marked_dirty += len(per_obj)
            return 0

    def clear(self) -> int:
        """Drop everything (server failure — conservative)."""
        with self._lock:
            dropped = sum(len(v) for v in self._entries.values())
            self._entries.clear()
            self.stats.invalidations += dropped
            return dropped

    def coordinate_bytes(self) -> int:
        """Bytes of the coordinate arrays the entries hold, each base
        array counted once."""
        with self._lock:
            roots = {}
            for per_obj in self._entries.values():
                for entry in per_obj.values():
                    if entry.selection is None:
                        continue
                    coords = entry.selection.coords
                    while isinstance(coords.base, np.ndarray):
                        coords = coords.base
                    roots[id(coords)] = coords.nbytes
            return sum(roots.values())

    def __len__(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._entries.values())


@dataclass(frozen=True, slots=True)
class WindowRecord:
    """What the scheduler keeps of one executed window: its counters.

    The window's :class:`BatchResult` — every :class:`QueryResult`, its
    selection and any exception — belongs to whoever called
    :meth:`QueryScheduler.execute_window`, and dies when they drop it.
    """

    width: int
    elapsed_s: float
    semantic_hits: int
    semantic_narrowed: int
    semantic_repaired: int
    #: The window's :attr:`BatchResult.total_bytes_read_virtual`, summed
    #: once when the window ends.
    total_bytes_read_virtual: float
    shared_reads: ClassVar[int] = 0
    saved_bytes_virtual: ClassVar[float] = 0.0


class QueryScheduler:
    """Executes queries in batch windows.

    :meth:`execute_window` runs one finished window as one
    :meth:`QueryEngine.execute_batch`; :meth:`run` chunks a query list
    into ``max_width``-sized windows, executes them, and returns the flat
    per-query results.

    The scheduler owns a :class:`SelectionCache` (unless disabled) and
    registers it with the system's invalidation hooks; :meth:`close`
    unregisters.  ``self.batches`` keeps one :class:`WindowRecord` of
    counters per executed window; the per-query results are what
    :meth:`execute_window` and :meth:`run` return, and the scheduler keeps
    none of them.
    """

    def __init__(
        self,
        system: PDCSystem,
        engine: Optional[QueryEngine] = None,
        max_width: int = 8,
        selection_cache: Optional[SelectionCache] = None,
        use_selection_cache: bool = True,
    ) -> None:
        if not is_count(max_width):
            raise ValueError(f"max_width must be an integer >= 1, not {max_width!r}")
        self.system = system
        self.engine = engine if engine is not None else QueryEngine(system)
        if self.engine.system is not system:
            raise ValueError("engine is bound to a different system")
        self.max_width = max_width
        self.selection_cache: Optional[SelectionCache] = None
        if use_selection_cache:
            self.selection_cache = (
                selection_cache if selection_cache is not None else SelectionCache()
            )
            system.register_invalidation_hook(self._on_invalidate)
        #: Every executed window's counters, in order.
        self.batches: List[WindowRecord] = []

    # ------------------------------------------------------------- execution
    def execute_window(self, specs: Sequence[QuerySpec]) -> BatchResult:
        """Execute one window as one batch."""
        batch = self.engine.execute_batch(
            list(specs), selection_cache=self.selection_cache
        )
        self.batches.append(WindowRecord(
            batch.width, batch.elapsed_s, batch.semantic_hits, batch.semantic_narrowed,
            batch.semantic_repaired, batch.total_bytes_read_virtual,
        ))
        monitor = self.system.monitor
        if monitor is not None:
            t_s = max(c.now for c in self.system.all_clocks())
            monitor.on_window(t_s, len(specs), batch.elapsed_s)
        return batch

    def run(
        self, queries: Sequence[Union[QueryNode, QuerySpec]], **kwargs
    ) -> List[QueryResult]:
        """Execute ``queries`` in ``max_width``-sized windows; returns one
        :class:`QueryResult` per query, in input order.  Re-raises the
        first per-query error encountered."""
        specs = [
            q if isinstance(q, QuerySpec) else QuerySpec(node=q, **kwargs)
            for q in queries
        ]
        results: List[QueryResult] = []
        for off in range(0, len(specs), self.max_width):
            batch = self.execute_window(specs[off : off + self.max_width])
            if batch.errors:
                raise next(iter(batch.errors.values()))
            results.extend(batch.results)  # type: ignore[arg-type]
        return results

    # ------------------------------------------------------------- lifecycle
    def _on_invalidate(
        self,
        object_name: Optional[str],
        regions: Optional[Sequence[int]] = None,
    ) -> None:
        """The system's invalidation hook, ``(name, regions)``: a write
        makes that object's entries stale over the written regions' spans
        and records its element count; ``(None, None)`` — a server
        failure — clears the cache."""
        if self.selection_cache is None:
            return
        if object_name is None:
            self.selection_cache.clear()
            return
        if regions is None or object_name not in self.system.objects:
            self.selection_cache.invalidate_object(object_name)
            return
        obj = self.system.get_object(object_name)
        spans = [
            (int(obj.offsets[rid]), int(obj.offsets[rid] + obj.counts[rid]))
            for rid in regions
            if 0 <= rid < obj.n_regions
        ]
        self.selection_cache.invalidate_object(object_name, spans, obj.n_elements)

    def close(self) -> None:
        """Unregister the invalidation hook."""
        if self.selection_cache is not None:
            self.system.unregister_invalidation_hook(self._on_invalidate)
