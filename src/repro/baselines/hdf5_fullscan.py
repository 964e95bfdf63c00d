"""HDF5-F: the paper's comparison baseline (§VI).

A *"hand-optimized parallel code using HDF5 to read data stored in HDF5
files and to perform a full scan"*.  The baseline shares the PDC system's
simulated PFS (the ``/hdf5/*.h5`` files carry default striping and an OST
imbalance factor — §III-E credits PDC's data distribution/aggregation for
its ~2× read advantage) but none of PDC's machinery: no regions, no
histograms, no caches beyond holding the arrays in memory after a
pre-load, no metadata service.

Two workloads:

* VPIC-style array queries — ``preload`` once (amortized over the query
  sequence, as the paper reports), then ``query`` per spec;
* BOSS-style traversal — every metadata+data query must re-read and parse
  *all* files, which is exactly why Fig. 5 shows the multi-fold PDC win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set

import numpy as np

from ..errors import QueryError
from ..interval import Interval
from ..pdc.system import PDCSystem
from ..query.ast import typed_conjuncts
from ..storage.costmodel import SimClock
from ..types import MB
from ..workloads.queries import QuerySpec, build_pdc_query

__all__ = ["HDF5FullScanEngine", "BaselineResult"]

#: Read granularity of the hand-optimized HDF5 reader (virtual bytes).
_CHUNK_BYTES = 8 * MB


@dataclass
class BaselineResult:
    """Outcome of one baseline query."""

    nhits: int
    elapsed_s: float
    coords: Optional[np.ndarray] = None


class HDF5FullScanEngine:
    """Parallel full-scan engine over the ``/hdf5`` comparison files."""

    def __init__(self, system: PDCSystem) -> None:
        self.system = system
        #: One reader process per PDC server: the same parallelism.
        self.n_processes = system.n_servers
        self.clocks = [SimClock(f"h5rank{i}") for i in range(self.n_processes)]
        self._loaded: Set[str] = set()

    # ----------------------------------------------------------------- timing
    def _sync(self) -> float:
        t = max(c.now for c in self.clocks)
        for c in self.clocks:
            c.advance_to(t)
        return t

    # ------------------------------------------------------------------- VPIC
    def preload(self, names: Sequence[str]) -> float:
        """Parallel read of each object's HDF5 file into process memory.

        Each process reads a contiguous 1/n share in ``_CHUNK_BYTES``
        accesses.  Charged once; the harness amortizes it across the query
        sequence like the paper does.
        """
        sysm = self.system
        t0 = self._sync()
        for name in names:
            if name in self._loaded:
                continue
            obj = sysm.get_object(name)
            total_elems = obj.n_elements
            share = (total_elems + self.n_processes - 1) // self.n_processes
            chunk_elems = max(
                1, int(_CHUNK_BYTES / (obj.itemsize * sysm.cost.virtual_scale))
            )
            for rank, clock in enumerate(self.clocks):
                start = rank * share
                stop = min(total_elems, start + share)
                if stop <= start:
                    continue
                n_accesses = max(1, math.ceil((stop - start) / chunk_elems))
                # The scan reads the payload in place; the read is charged
                # on this rank's clock.
                f = sysm.pfs.stat(obj.hdf5_path)
                clock.charge(
                    f.imbalance
                    * sysm.cost.pfs_read_time(
                        (stop - start) * obj.itemsize,
                        n_accesses,
                        f.stripe_count,
                        self.n_processes,
                    ),
                    "pfs_read",
                )
            self._loaded.add(name)
        return self._sync() - t0

    def query(self, spec: QuerySpec, want_selection: bool = False) -> BaselineResult:
        """Full scan: evaluate every condition over the in-memory arrays.

        The first condition scans every element; subsequent conditions
        check only surviving locations (any reasonable hand-written scan
        does this).  Requires :meth:`preload` first.
        """
        sysm = self.system
        names = [c[0] for c in spec.conditions]
        missing = [n for n in names if n not in self._loaded]
        if missing:
            raise QueryError(f"objects not preloaded: {missing}")
        t0 = self._sync()

        # One typed interval per object, in spec order (no selectivity
        # planner here — the baseline has no histograms).
        conjuncts = typed_conjuncts(build_pdc_query(sysm, spec).node, sysm.type_of)
        if not conjuncts:
            return BaselineResult(nhits=0, elapsed_s=self._sync() - t0)
        (first_name, first_iv), *rest = conjuncts[0][1].items()

        first = sysm.get_object(first_name)
        n = first.n_elements
        per_rank = n / self.n_processes
        for clock in self.clocks:
            clock.charge(sysm.cost.scan_time(int(per_rank)), "scan")
        coords = np.flatnonzero(first_iv.mask(first.data)).astype(np.int64)

        for obj_name, interval in rest:
            obj = sysm.get_object(obj_name)
            for clock in self.clocks:
                clock.charge(
                    sysm.cost.scan_time(int(coords.size / self.n_processes)), "scan"
                )
            coords = coords[interval.mask(obj.data[coords])]

        # Result shipping: each process streams its share to the parallel
        # application; a small count aggregation lands on rank 0.
        if want_selection and coords.size:
            share = int(coords.size * 8 / self.n_processes)
            for clock in self.clocks:
                clock.charge(sysm.cost.net_time(share), "net")
        self.clocks[0].charge(
            sysm.cost.net_time(16 * self.n_processes, scaled=False), "net"
        )
        elapsed = self._sync() - t0
        return BaselineResult(
            nhits=int(coords.size),
            elapsed_s=elapsed,
            coords=coords if want_selection else None,
        )

    # ------------------------------------------------------------------- BOSS
    def boss_traverse(
        self,
        tag_conditions: Dict[str, object],
        interval: Interval,
        object_names: Sequence[str],
    ) -> BaselineResult:
        """Metadata + data query the HDF5 way: traverse *every* file, parse
        its metadata, and scan the data of matching objects (§VI-C).

        ``object_names`` is the full catalog; work is divided round-robin
        across processes.  No result caching across queries — a traversal
        streams the files.
        """
        sysm = self.system
        t0 = self._sync()
        total_hits = 0
        #: Per-file open+metadata-parse cost (HDF5 attribute reads are
        #: small, latency-bound operations on the PFS).
        per_object_meta_s = 2 * sysm.cost.params.seek_latency_s

        for i, name in enumerate(object_names):
            obj = sysm.get_object(name)
            clock = self.clocks[i % self.n_processes]
            clock.charge(per_object_meta_s, "meta")
            if not obj.meta.matches_tags(tag_conditions):
                continue
            f = sysm.pfs.stat(obj.hdf5_path)
            clock.charge(
                f.imbalance
                * sysm.cost.pfs_read_time(
                    obj.n_elements * obj.itemsize, 1, f.stripe_count, self.n_processes
                ),
                "pfs_read",
            )
            clock.charge(sysm.cost.scan_time(obj.n_elements), "scan")
            total_hits += int(interval.typed(obj.meta.pdc_type).mask(obj.data).sum())

        self.clocks[0].charge(sysm.cost.net_time(16 * len(object_names)), "net")
        return BaselineResult(nhits=total_hits, elapsed_s=self._sync() - t0)
