"""Binned bitmap indexes (FastBit-equivalent), one per object.

§III-D4: *"We construct a bitmap for each region"*; querying reads and
reconstructs the index instead of the region's data.  An
:class:`ObjectIndex` holds what probes read — per-bin tables, one row per
region, and the regions' positions in bin order — while the WAH bitmaps
live only in the index file, one :class:`RegionBitmapIndex` chunk per
region.  A range query ORs the bitmaps of fully-covered bins and (only when
endpoints fall off the grid) flags boundary bins for a raw-data check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import IndexError_
from ..interval import Interval
from ..sorting.reorganize import _stable_order
from . import wah
from .binning import sig_digit_edges

__all__ = ["ObjectIndex", "RegionBitmapIndex", "position_dtype"]

#: Integers from this magnitude on do not all survive a float64 copy.
_EXACT_INT = 2.0 ** 53


#: The index file's sections, in file order, and the dtype of each.
_SECTIONS = (("edges", np.float64), ("bin_ids", np.int64), ("bin_min", np.float64),
             ("bin_max", np.float64), ("lengths", np.int64), ("payload", np.uint64),
             ("meta", np.int64))


def position_dtype(n_elements: int) -> np.dtype:
    """The narrowest unsigned dtype holding every position of a region of
    ``n_elements``."""
    return np.dtype(np.min_scalar_type(max(n_elements - 1, 0)))


@dataclass(frozen=True)
class IndexProbeCost:
    """I/O and scan footprint of one index probe (see ``query_cost``)."""

    words_touched: int
    bytes_touched: int
    header_bytes: int
    n_bins_touched: int
    candidates: int


def _classify_occupied(
    interval: Interval, bin_min: np.ndarray, bin_max: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(fully-covered, partial) masks over occupied bins — one region's, or
    :class:`ObjectIndex` rows — against their true content ranges."""
    overlap = interval.overlaps_range_arrays(bin_min, bin_max)
    full = overlap & interval.contains_range_arrays(bin_min, bin_max)
    return full, overlap & ~full


@dataclass
class RegionBitmapIndex:
    """One region's binned, WAH-compressed bitmap index as its chunk of
    the index file holds it (:meth:`to_bytes` / :meth:`from_bytes`).

    Besides the per-bin bitmaps, the index records each occupied bin's true
    content min/max.  A bin is then *fully covered* by a query interval iff
    its content range lies inside the interval — exact even for open
    endpoints that coincide with bin edges (the plain edge-based test would
    send such bins to a raw-data candidate check unnecessarily).
    """

    edges: np.ndarray
    #: Occupied bin ids, ascending.
    bin_ids: np.ndarray
    #: True content minimum/maximum per occupied bin (aligned to bin_ids).
    bin_min: np.ndarray
    bin_max: np.ndarray
    #: Compressed words / set bits per occupied bin (aligned to bin_ids).
    bin_words: np.ndarray
    bin_counts: np.ndarray
    #: Every occupied bin's WAH stream (uint64), back to back in ``bin_ids``
    #: order: bin ``k``'s is the ``bin_words[k]`` words after the earlier
    #: bins' — the index file's payload section as it is.
    words: np.ndarray
    n_elements: int
    #: The region's positions in bin order, each bin's ascending — the
    #: bitmaps decoded once, at read (:func:`position_dtype`) — and where
    #: each occupied bin starts in them.
    positions: Optional[np.ndarray] = None
    bin_starts: Optional[np.ndarray] = None

    # -------------------------------------------------------------- inspection
    @property
    def n_occupied_bins(self) -> int:
        return int(self.bin_ids.size)

    @property
    def nbytes(self) -> int:
        """Serialized index size: all compressed bitmaps + the edge array +
        per-bitmap headers.  This is what lands in the index file (the paper
        reports 15–17 % of data size for the VPIC objects)."""
        return (
            wah.compressed_nbytes(self.words)
            + self.edges.size * 8
            + self.n_occupied_bins * 16  # bin id + word count
            + self.n_occupied_bins * 16  # content min/max
        )

    @property
    def header_bytes(self) -> int:
        """The bin directory a probe always reads: edges + per-bin (id,
        offset, minmax) records."""
        return int(self.edges.size * 8 + self.n_occupied_bins * 32)

    # ------------------------------------------------------------------ query
    def query_cost(self, interval: Interval) -> "IndexProbeCost":
        """What a FastBit-style probe of this index touches for an interval.

        FastBit seeks to and reads only the bitmaps of bins overlapping the
        condition (plus the small bin directory), so query-time index I/O is
        proportional to the touched bins, not the whole index file.
        """
        full, partial = _classify_occupied(interval, self.bin_min, self.bin_max)
        touched = full | partial
        words = int(self.bin_words[touched].sum())
        return IndexProbeCost(
            words_touched=words,
            bytes_touched=words * 8,
            header_bytes=self.header_bytes,
            n_bins_touched=int(np.count_nonzero(touched)),
            candidates=int(self.bin_counts[partial].sum()),
        )

    # ---------------------------------------------------------- serialization
    def to_bytes(self) -> np.ndarray:
        """Flat uint8 buffer (the on-storage index-file format): a header
        of section lengths followed by the sections of ``_SECTIONS``."""
        fields = (self.edges, self.bin_ids, self.bin_min, self.bin_max, self.bin_words,
                  self.words, [self.n_elements])
        sections = [np.asarray(a, dtype) for a, (_, dtype) in zip(fields, _SECTIONS)]
        header = np.array([s.size for s in sections], dtype=np.int64)
        return np.concatenate(
            [header.view(np.uint8)] + [s.view(np.uint8) for s in sections]
        )

    @classmethod
    def from_bytes(cls, buf: np.ndarray) -> "RegionBitmapIndex":
        """Inverse of :meth:`to_bytes`.  The file stores each bin's words
        but not its members: they are decoded here, counts and positions."""
        buf = np.ascontiguousarray(np.asarray(buf, dtype=np.uint8))
        header = buf[: len(_SECTIONS) * 8].view(np.int64)
        a: Dict[str, np.ndarray] = {}
        off = len(_SECTIONS) * 8
        for (name, dt), count in zip(_SECTIONS, header):
            nbytes = int(count) * np.dtype(dt).itemsize
            a[name] = buf[off : off + nbytes].view(dt)
            off += nbytes
        if off != buf.size:
            raise IndexError_(f"index file corrupt: {buf.size - off} trailing bytes")
        n, members, offset = int(a["meta"][0]), [np.zeros(0, np.int64)], 0
        for ln in a["lengths"].tolist():
            members.append(np.flatnonzero(wah.decompress(a["payload"][offset : offset + ln], n)))
            offset += ln
        bin_counts = np.array([m.size for m in members[1:]], dtype=np.int64)
        return cls(
            edges=a["edges"], bin_ids=a["bin_ids"], bin_min=a["bin_min"], bin_max=a["bin_max"],
            bin_words=a["lengths"], bin_counts=bin_counts, words=a["payload"], n_elements=n,
            positions=np.concatenate(members).astype(position_dtype(n)),
            bin_starts=(np.cumsum(bin_counts) - bin_counts).astype(position_dtype(n)),
        )


#: The per-bin rows of an :class:`ObjectIndex`, each one's dtype (a bin's
#: words, members and start in its region fit 32 bits) and the pad that
#: fills a row past its region's occupied bins.
_ROWS = (("bin_min", np.float64, np.inf), ("bin_max", np.float64, -np.inf),
         ("bin_words", np.int32, 0), ("bin_counts", np.int32, 0),
         ("bin_starts", np.int32, 0))
#: The per-region counts of an :class:`ObjectIndex`.
_COUNTS = ("words", "nbytes", "header_bytes", "n_elements", "delta")


def _place(out: np.ndarray, at: np.ndarray, values: np.ndarray, sizes: np.ndarray) -> None:
    """Write ``values`` — runs of ``sizes`` back to back — into ``out``,
    run ``i`` from ``at[i]`` on."""
    out[np.arange(values.size) + np.repeat(at - (np.cumsum(sizes) - sizes), sizes)] = values


#: Elements one :func:`_index_pass` covers, in whole regions: its
#: temporaries (some 60 bytes an element) stay a few MB at any object size.
_PASS_ELEMENTS = 1 << 16


def _index_pass(values: np.ndarray, counts: np.ndarray, precision: int):
    """Bin and WAH-compress regions given back to back in one array pass:
    one stable (region, bin) order, one :func:`wah.compress_partition` of
    every (region, bin) set.  Returns per region its occupied bins, words
    and bin-directory bytes; the :data:`_ROWS` of its occupied bins (a
    dict); its positions in bin order; and its index-file chunk."""
    vals = values.astype(np.float64, copy=False)
    first = np.cumsum(counts) - counts
    edges = [sig_digit_edges(lo, hi, precision) for lo, hi in zip(
        np.minimum.reduceat(vals, first).tolist(), np.maximum.reduceat(vals, first).tolist())]
    n_edges = np.array([e.size for e in edges], dtype=np.int64)
    # A (region, bin) key: each region's bins after the earlier regions'.
    base = np.cumsum(n_edges - 1) - (n_edges - 1)
    # Narrow: numpy radix-sorts keys of 16 bits or fewer, and
    # ``_stable_order`` packs keys of up to 32.
    key = np.empty(vals.size, np.min_scalar_type(int(base[-1] + n_edges[-1])))
    for e, b, lo, n in zip(edges, (base - 1).tolist(), first.tolist(), counts.tolist()):
        key[lo : lo + n] = np.searchsorted(e, vals[lo : lo + n], side="right") + b
    # Stable: each set's members stay in ascending position order, and
    # each region's sets fill its own span of the order.
    order = _stable_order(key)
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    set_key = key[starts].astype(np.int64)
    region = np.searchsorted(base, set_key, side="right") - 1
    local = order - np.repeat(first, counts)
    words, bin_words = wah.compress_partition(local, starts, counts[region])
    bin_words = bin_words.astype(np.int64, copy=False)
    by_bin = vals[order]
    bin_min = np.minimum.reduceat(by_bin, starts)
    bin_max = np.maximum.reduceat(by_bin, starts)
    if values.dtype.kind in "iu" and values.dtype.itemsize > 4:
        # A 64-bit integer past 2**53 rounds in its float64 copy: widen such
        # a range one ulp outward, so a full bin's members all match.
        bin_min = np.where(abs(bin_min) >= _EXACT_INT, np.nextafter(bin_min, -np.inf), bin_min)
        bin_max = np.where(abs(bin_max) >= _EXACT_INT, np.nextafter(bin_max, np.inf), bin_max)
    n_bins = np.bincount(region, minlength=counts.size)
    region_words = np.add.reduceat(bin_words, np.cumsum(n_bins) - n_bins)
    rows = {name: a.astype(dtype, copy=False) for (name, dtype, _), a in zip(_ROWS, (
        bin_min, bin_max, bin_words, np.diff(starts, append=vals.size), starts - first[region]))}
    # The chunks, each a run of 8-byte items: the section lengths, then
    # the sections of ``_SECTIONS``.
    ones = np.ones_like(n_bins)
    lengths = np.stack([n_edges, n_bins, n_bins, n_bins, n_bins, region_words, ones], axis=1)
    items = lengths.sum(axis=1) + 7
    out, at = np.empty(int(items.sum()), dtype=np.uint64), np.cumsum(items) - items
    for section, sizes in ((lengths.ravel(), 7 * ones), (np.concatenate(edges), n_edges),
                           (set_key - base[region], n_bins), (bin_min, n_bins),
                           (bin_max, n_bins), (bin_words, n_bins), (words, region_words),
                           (counts, ones)):
        _place(out, at, section.view(np.uint64), sizes)
        at = at + sizes
    chunks = np.split(out.view(np.uint8), (np.cumsum(items)[:-1] * 8).tolist())
    positions = local.astype(position_dtype(int(counts.max())))
    return n_bins, region_words, n_edges * 8 + n_bins * 32, rows, positions, chunks


@dataclass
class ObjectIndex:
    """The bitmap index of an object's regions, as probes read it: every
    region's per-bin tables as rows ``[n_regions, max_bins]``, so one
    classification prices a whole plan step.  A row is padded with an
    empty content range (``+inf``/``-inf``) of no words and no members,
    which overlaps no bounded interval and adds to no sum.  The words,
    edges and bin ids are the index file's (the chunks of :meth:`build`).
    """

    bin_min: np.ndarray
    bin_max: np.ndarray
    bin_words: np.ndarray
    bin_counts: np.ndarray
    #: Where each bin starts in its region's bin-ordered positions.
    bin_starts: np.ndarray
    #: Per region: compressed words, modelled index-file bytes
    #: (:attr:`RegionBitmapIndex.nbytes`), the bin directory a probe reads
    #: (:attr:`RegionBitmapIndex.header_bytes`), the element count the
    #: bitmaps describe, and the elements only an *uncompacted* WAH delta
    #: segment covers (continuous ingest appends deltas instead of
    #: rebuilding; probes treat delta positions as candidates until
    #: background compaction folds them in).
    words: np.ndarray
    nbytes: np.ndarray
    header_bytes: np.ndarray
    n_elements: np.ndarray
    delta: np.ndarray
    #: Every region's positions in bin order, each bin's ascending, at the
    #: region's offset in the payload.
    positions: np.ndarray

    @classmethod
    def build(
        cls, values: np.ndarray, counts: np.ndarray, precision: int = 2
    ) -> Tuple["ObjectIndex", List[np.ndarray]]:
        """Index regions given back to back (``counts[i]`` values each) with
        ``precision``-significant-digit binning (paper default: 2), in
        :func:`_index_pass` passes.  Returns their index, positions back to
        back, and each region's chunk (:meth:`RegionBitmapIndex.to_bytes`)."""
        values, counts = np.asarray(values), np.asarray(counts, dtype=np.int64)
        if values.ndim != 1 or values.size == 0 or counts.min() < 1 or counts.sum() != values.size:
            raise IndexError_("bitmap index needs non-empty 1-D regions")
        ends = np.cumsum(counts)
        cuts = np.flatnonzero(np.diff((ends - 1) // _PASS_ELEMENTS)) + 1
        passes = [_index_pass(v, c, precision) for v, c in zip(
            np.split(values, ends[cuts - 1]), np.split(counts, cuts))]
        n_bins, words, header_bytes = (np.concatenate([p[i] for p in passes]) for i in range(3))
        # Row r's occupied bins are its first n_bins[r] cells.
        width = int(n_bins.max())
        cell = np.arange(int(n_bins.sum())) + np.repeat(
            np.arange(counts.size) * width - (np.cumsum(n_bins) - n_bins), n_bins)
        rows = {}
        for name, dtype, pad in _ROWS:
            rows[name] = np.full((counts.size, width), pad, dtype)
            rows[name].ravel()[cell] = np.concatenate([p[3].pop(name) for p in passes])
        index = cls(
            **rows, words=words, nbytes=words * 8 + header_bytes, header_bytes=header_bytes,
            n_elements=counts.copy(), delta=np.zeros(counts.size, dtype=np.int64),
            positions=np.concatenate([p[4] for p in passes]).astype(
                position_dtype(int(counts.max())), copy=False),
        )
        return index, [chunk for p in passes for chunk in p[5]]

    def put(
        self, region_ids: np.ndarray, part: "ObjectIndex", offsets: np.ndarray, size: int
    ) -> None:
        """Make ``part``, built over the ascending ``region_ids``, their index
        (deltas cleared): rows written in place — widened only when ``part``
        has more bins than any row holds, grown by regions an append opened —
        and positions at each region's payload offset (``offsets``), the
        store grown to ``size`` once too short."""
        region_ids = np.asarray(region_ids, dtype=np.int64)
        n_rows, width = self.bin_min.shape
        rows, k = max(n_rows, int(region_ids[-1]) + 1), part.bin_min.shape[1]
        if rows > n_rows or k > width:
            for name, dtype, pad in _ROWS:
                grown = np.full((rows, max(width, k)), pad, dtype)
                grown[:n_rows, :width] = getattr(self, name)
                setattr(self, name, grown)
            for name in _COUNTS:
                setattr(self, name, np.concatenate(
                    [getattr(self, name), np.zeros(rows - n_rows, dtype=np.int64)]))
        for name, _, pad in _ROWS:
            row = getattr(self, name)
            row[region_ids, :k] = getattr(part, name)
            row[region_ids, k:] = pad
        for name in _COUNTS:
            getattr(self, name)[region_ids] = getattr(part, name)
        at = offsets[region_ids]
        stop, store = int((at + part.n_elements).max()), self.positions
        if store.size < stop or not np.can_cast(part.positions.dtype, store.dtype):
            store = np.zeros(max(size, stop), np.promote_types(store.dtype, part.positions.dtype))
            store[: self.positions.size] = self.positions
            self.positions = store
        _place(store, at, part.positions, part.n_elements)

    def footprint(
        self, interval: Interval, region_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(words touched, candidates)`` of probing each listed region —
        :meth:`RegionBitmapIndex.query_cost` for all of them at once."""
        full, partial = _classify_occupied(
            interval, self.bin_min[region_ids], self.bin_max[region_ids]
        )
        return (
            (self.bin_words[region_ids] * (full | partial)).sum(axis=1),
            (self.bin_counts[region_ids] * partial).sum(axis=1),
        )
