"""Per-region binned bitmap indexes (FastBit-equivalent).

§III-D4: *"We construct a bitmap for each region"*; querying reads and
reconstructs the index instead of the region's data.  A
:class:`RegionBitmapIndex` holds one WAH-compressed bitmap per occupied bin
of the significant-digit grid, all in one word array; a range query ORs
the bitmaps of fully-covered bins and (only when endpoints fall off the
grid) flags boundary bins for a raw-data candidate check.  The index keeps
its bins decoded too, as the region's positions in bin order
(``kernels.index_coords``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import IndexError_
from ..interval import Interval
from . import wah
from .binning import assign_bins, sig_digit_edges

__all__ = ["RegionBitmapIndex", "BitmapQueryResult", "IndexProbeTable", "position_dtype"]

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


@dataclass
class BitmapQueryResult:
    """Outcome of an index probe on one region.

    ``sure_positions`` are definite hits (elements of fully-covered bins).
    ``candidate_positions`` may or may not match and must be verified
    against the raw values — empty for on-grid query endpoints.
    ``words_scanned`` is the number of compressed words touched (feeds the
    cost model).
    """

    sure_positions: np.ndarray
    candidate_positions: np.ndarray
    words_scanned: int


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
    """(fully-covered, partial) boolean masks over occupied bins — one
    index's, or every row of an :class:`IndexProbeTable` — for ``interval``,
    classified against true per-bin content ranges."""
    overlap = interval.overlaps_range_arrays(bin_min, bin_max)
    full = overlap & interval.contains_range_arrays(bin_min, bin_max)
    return full, overlap & ~full


@dataclass
class RegionBitmapIndex:
    """Binned, WAH-compressed bitmap index of one region's values.

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
    #: Compressed words / set bits per occupied bin (aligned to bin_ids):
    #: what a probe's footprint is summed from, instead of walking and
    #: re-popcounting the streams on every probe.
    bin_words: np.ndarray
    bin_counts: np.ndarray
    #: Every occupied bin's WAH stream (uint64), back to back in ``bin_ids``
    #: order: bin ``k``'s is the ``bin_words[k]`` words after the earlier
    #: bins' — the index file's payload section as it is.
    words: np.ndarray
    n_elements: int
    #: The region's positions in bin order, each bin's ascending — the
    #: bitmaps decoded once, at build or read (:func:`position_dtype`) —
    #: and where each occupied bin starts in them.
    positions: Optional[np.ndarray] = None
    bin_starts: Optional[np.ndarray] = None

    # ------------------------------------------------------------ construction
    @classmethod
    def build(cls, data: np.ndarray, precision: int = 2) -> "RegionBitmapIndex":
        """Index a region's raw values with ``precision``-significant-digit
        binning (paper default: 2)."""
        data = np.asarray(data)
        if data.ndim != 1 or data.size == 0:
            raise IndexError_("bitmap index needs non-empty 1-D data")
        values = data.astype(np.float64, copy=False)
        edges = sig_digit_edges(float(values.min()), float(values.max()), precision)
        bin_idx = assign_bins(values, edges)
        # Stable: each bin's members stay in ascending position order.  The
        # key is cast to the narrowest type holding a bin id because numpy
        # radix-sorts keys of 16 bits or fewer.
        order = np.argsort(
            bin_idx.astype(np.min_scalar_type(edges.size)), kind="stable"
        )
        sorted_bins = bin_idx[order]
        starts = np.flatnonzero(np.diff(sorted_bins, prepend=-1))
        occupied = sorted_bins[starts]
        by_bin = values[order]
        words, bin_words = wah.compress_partition(order, starts, values.size)
        bin_min = np.minimum.reduceat(by_bin, starts)
        bin_max = np.maximum.reduceat(by_bin, starts)
        if data.dtype.kind in "iu" and data.dtype.itemsize > 4:
            # A 64-bit integer past 2**53 rounds in its float64 copy: widen such
            # a range one ulp outward, so a full bin's members all match.
            bin_min = np.where(abs(bin_min) >= _EXACT_INT, np.nextafter(bin_min, -np.inf), bin_min)
            bin_max = np.where(abs(bin_max) >= _EXACT_INT, np.nextafter(bin_max, np.inf), bin_max)
        return cls(
            edges=edges,
            bin_ids=occupied,
            bin_min=bin_min,
            bin_max=bin_max,
            bin_words=bin_words,
            bin_counts=np.diff(starts, append=values.size),
            words=words,
            n_elements=int(values.size),
            positions=order.astype(position_dtype(values.size)),
            bin_starts=starts.astype(position_dtype(values.size)),
        )

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

    def total_words(self) -> int:
        return int(self.words.size)

    @property
    def header_bytes(self) -> int:
        """The bin directory a probe always reads: edges + per-bin (id,
        offset, minmax) records."""
        return int(self.edges.size * 8 + self.n_occupied_bins * 32)

    # ------------------------------------------------------------------ query
    def query(self, interval: Interval) -> BitmapQueryResult:
        """Probe the index for an interval condition: the members of the
        fully-covered bins are sure hits, those of partial (boundary) bins
        candidates, read off the decoded bins."""
        full, partial = _classify_occupied(interval, self.bin_min, self.bin_max)
        return BitmapQueryResult(
            sure_positions=self._members(full),
            candidate_positions=self._members(partial),
            words_scanned=int(self.bin_words[full | partial].sum()),
        )

    def _members(self, bins: np.ndarray) -> np.ndarray:
        """The ascending positions of the selected occupied bins."""
        runs = [self.positions[start : start + count] for start, count in zip(
            self.bin_starts[bins].tolist(), self.bin_counts[bins].tolist())]
        return np.sort(np.concatenate(runs or [np.zeros(0, np.int64)])).astype(np.int64)

    def count_range(self, interval: Interval) -> Tuple[int, int]:
        """(sure_hits, candidates) counts without materializing positions —
        the get-nhits fast path when no candidate check is needed."""
        full, partial = _classify_occupied(interval, self.bin_min, self.bin_max)
        return int(self.bin_counts[full].sum()), int(self.bin_counts[partial].sum())

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
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flatten to arrays for storage as one index file."""
        return {
            "edges": self.edges,
            "bin_ids": self.bin_ids,
            "bin_min": self.bin_min,
            "bin_max": self.bin_max,
            "lengths": self.bin_words,
            "payload": self.words,
            "meta": np.array([self.n_elements], dtype=np.int64),
        }

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "RegionBitmapIndex":
        # The file stores each bin's words but not its members: they are
        # decoded once here — counts and positions — never per probe.
        n, members, offset = int(arrays["meta"][0]), [np.zeros(0, np.int64)], 0
        words = np.asarray(arrays["payload"], dtype=np.uint64)
        for ln in np.asarray(arrays["lengths"]).tolist():
            members.append(np.flatnonzero(wah.decompress(words[offset : offset + ln], n)))
            offset += ln
        bin_counts = np.array([m.size for m in members[1:]], dtype=np.int64)
        return cls(
            edges=np.asarray(arrays["edges"], dtype=np.float64),
            bin_ids=np.asarray(arrays["bin_ids"], dtype=np.int64),
            bin_min=np.asarray(arrays["bin_min"], dtype=np.float64),
            bin_max=np.asarray(arrays["bin_max"], dtype=np.float64),
            bin_words=np.asarray(arrays["lengths"], dtype=np.int64),
            bin_counts=bin_counts,
            words=words,
            n_elements=n,
            positions=np.concatenate(members).astype(position_dtype(n)),
            bin_starts=(np.cumsum(bin_counts) - bin_counts).astype(position_dtype(n)),
        )

    def to_bytes(self) -> np.ndarray:
        """Flat uint8 buffer (the on-storage index-file format): a header
        of section lengths followed by the sections of ``_SECTIONS``."""
        a = self.to_arrays()
        sections = [np.asarray(a[name], dtype) for name, dtype in _SECTIONS]
        header = np.array([s.size for s in sections], dtype=np.int64)
        return np.concatenate(
            [header.view(np.uint8)] + [s.view(np.uint8) for s in sections]
        )

    @classmethod
    def from_bytes(cls, buf: np.ndarray) -> "RegionBitmapIndex":
        """Inverse of :meth:`to_bytes`."""
        buf = np.ascontiguousarray(np.asarray(buf, dtype=np.uint8))
        header = buf[: len(_SECTIONS) * 8].view(np.int64)
        arrays: Dict[str, np.ndarray] = {}
        off = len(_SECTIONS) * 8
        for (name, dt), count in zip(_SECTIONS, header):
            nbytes = int(count) * np.dtype(dt).itemsize
            arrays[name] = buf[off : off + nbytes].view(dt)
            off += nbytes
        if off != buf.size:
            raise IndexError_(f"index file corrupt: {buf.size - off} trailing bytes")
        return cls.from_arrays(arrays)


#: The per-bin rows of an :class:`IndexProbeTable`, and each one's dtype
#: and pad value.
_ROWS = ("bin_min", "bin_max", "bin_words", "bin_counts", "bin_starts")
_PADS = ((np.float64, np.inf), (np.float64, -np.inf), (np.int64, 0), (np.int64, 0),
         (np.int64, 0))


@dataclass(frozen=True)
class IndexProbeTable:
    """The per-bin tables of all of an object's region indexes, stacked
    ``[n_regions, max_bins]`` so one classification prices the probes of a
    whole plan step.  Ragged rows are padded with an empty content range
    (``+inf``/``-inf``) of zero words and zero members: a pad overlaps no
    bounded interval and adds nothing to any sum."""

    bin_min: np.ndarray
    bin_max: np.ndarray
    bin_words: np.ndarray
    bin_counts: np.ndarray
    #: Where each bin starts in its region's bin-ordered positions.
    bin_starts: np.ndarray
    #: Per-region :attr:`RegionBitmapIndex.header_bytes` and the element
    #: count each index describes.
    header_bytes: np.ndarray
    n_elements: np.ndarray

    @classmethod
    def stack(cls, indexes: Sequence[RegionBitmapIndex]) -> "IndexProbeTable":
        table = cls._blank(len(indexes), max(ix.bin_ids.size for ix in indexes))
        for rid, ix in enumerate(indexes):
            table._fill(rid, ix)
        return table

    def put(self, rid: int, index: RegionBitmapIndex) -> "IndexProbeTable":
        """A new table: this one with row ``rid`` describing ``index`` —
        an existing row replaced, or rows appended up to ``rid`` — and the
        padding widened when ``index`` has more bins than any row holds."""
        rows, width = self.bin_min.shape
        table = self._blank(max(rows, rid + 1), max(width, index.bin_ids.size))
        for name in _ROWS:
            getattr(table, name)[:rows, :width] = getattr(self, name)
        table.header_bytes[:rows] = self.header_bytes
        table.n_elements[:rows] = self.n_elements
        table._fill(rid, index)
        return table

    @classmethod
    def _blank(cls, rows: int, width: int) -> "IndexProbeTable":
        return cls(
            *(np.full((rows, width), fill, dtype=dtype) for dtype, fill in _PADS),
            np.zeros(rows, dtype=np.int64),
            np.zeros(rows, dtype=np.int64),
        )

    def _fill(self, rid: int, index: RegionBitmapIndex) -> None:
        """Write row ``rid`` of a table being built: ``index``'s per-bin
        tables, pads after them."""
        k = index.bin_ids.size
        for name, (_, fill) in zip(_ROWS, _PADS):
            row = getattr(self, name)[rid]
            row[:k] = getattr(index, name)
            row[k:] = fill
        self.header_bytes[rid] = index.header_bytes
        self.n_elements[rid] = index.n_elements

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
