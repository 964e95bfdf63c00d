"""Block index (Wu et al., SC'17 — the paper's reference [26]).

§VIII: *"Block index is proposed to partition a dataset into fixed-size
blocks and record their minimum and maximum values.  To speed up the data
read performance, each block with matching elements is read entirely ...
The PDC-query service and the block index share similar concepts to
divide large data into smaller parts.  However, we use the global
histograms to further optimize querying performance for more complex
multi-object queries."*

This engine implements exactly that comparator: fixed-size blocks with
min/max, whole-block reads of surviving blocks, candidate checking for
later conditions — but **no histograms** (no selectivity estimation, so
multi-object conditions evaluate in user order) and no PDC placement
(reads go to the default-striped comparison files).  The gap between this
and PDC-H isolates what the global histogram adds.
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
from .hdf5_fullscan import BaselineResult

__all__ = ["BlockIndexEngine"]


@dataclass
class _ObjectBlocks:
    """Per-object block metadata."""

    block_elements: int
    bmin: np.ndarray
    bmax: np.ndarray

    @property
    def n_blocks(self) -> int:
        return int(self.bmin.size)


class BlockIndexEngine:
    """Block-index query evaluation over the comparison HDF5 files."""

    def __init__(
        self,
        system: PDCSystem,
        block_bytes: int = 32 * MB,
        n_processes: Optional[int] = None,
    ) -> None:
        self.system = system
        self.block_bytes = block_bytes
        self.n_processes = system.n_servers if n_processes is None else n_processes
        if self.n_processes < 1:
            raise QueryError("need at least one process")
        self.clocks = [SimClock(f"blk{i}") for i in range(self.n_processes)]
        self._blocks: Dict[str, _ObjectBlocks] = {}
        #: Blocks already read this session (the comparator caches like any
        #: reasonable implementation).
        self._resident: Set[tuple] = set()

    # ------------------------------------------------------------------ build
    def build(self, names: Sequence[str]) -> float:
        """Scan each object once to record per-block min/max (the block
        index's construction pass); returns the simulated build seconds."""
        sysm = self.system
        t0 = self._sync()
        for name in names:
            if name in self._blocks:
                continue
            obj = sysm.get_object(name)
            block_elems = max(
                1, int(self.block_bytes / (obj.itemsize * sysm.cost.virtual_scale))
            )
            n_blocks = math.ceil(obj.n_elements / block_elems)
            bmin = np.empty(n_blocks)
            bmax = np.empty(n_blocks)
            for b in range(n_blocks):
                seg = obj.data[b * block_elems : (b + 1) * block_elems]
                bmin[b] = seg.min()
                bmax[b] = seg.max()
            self._blocks[name] = _ObjectBlocks(block_elems, bmin, bmax)
            # Construction reads the whole file once, in parallel.
            f = sysm.pfs.stat(obj.hdf5_path)
            share = obj.n_elements // self.n_processes + 1
            for clock in self.clocks:
                clock.charge(
                    f.imbalance
                    * sysm.cost.pfs_read_time(
                        share * obj.itemsize,
                        max(1, share // block_elems),
                        f.stripe_count,
                        self.n_processes,
                    )
                    + sysm.cost.scan_time(share),
                    "build",
                )
        return self._sync() - t0

    # ------------------------------------------------------------------ query
    def query(self, spec: QuerySpec, want_selection: bool = False) -> BaselineResult:
        """Evaluate conditions in **user order** (no selectivity planner),
        pruning and reading whole blocks via the min/max index."""
        sysm = self.system
        for obj_name, _, _ in spec.conditions:
            if obj_name not in self._blocks:
                raise QueryError(f"block index not built for {obj_name!r}")
        conjuncts = typed_conjuncts(build_pdc_query(sysm, spec).node, sysm.type_of)
        if not conjuncts:
            return BaselineResult(nhits=0, elapsed_s=0.0)
        (first, first_iv), *rest = conjuncts[0][1].items()

        t0 = self._sync()
        coords = self._eval_first(first, first_iv)
        for obj_name, interval in rest:
            if coords.size == 0:
                break
            coords = self._eval_candidates(obj_name, interval, coords)

        if want_selection and coords.size:
            share = int(coords.size * 8 / self.n_processes)
            for clock in self.clocks:
                clock.charge(sysm.cost.net_time(share), "net")
        self.clocks[0].charge(
            sysm.cost.net_time(16 * self.n_processes, scaled=False), "net"
        )
        return BaselineResult(
            nhits=int(coords.size),
            elapsed_s=self._sync() - t0,
            coords=coords if want_selection else None,
        )

    # ---------------------------------------------------------------- internals
    def _sync(self) -> float:
        t = max(c.now for c in self.clocks)
        for c in self.clocks:
            c.advance_to(t)
        return t

    def _charge_block_reads(self, name: str, block_ids: np.ndarray) -> None:
        """Whole-block reads of not-yet-resident blocks, split round-robin."""
        sysm = self.system
        obj = sysm.get_object(name)
        blocks = self._blocks[name]
        f = sysm.pfs.stat(obj.hdf5_path)
        cold = [b for b in block_ids if (name, int(b)) not in self._resident]
        readers = max(1, min(self.n_processes, len(cold)))
        for i, b in enumerate(cold):
            clock = self.clocks[int(b) % self.n_processes]
            nbytes = blocks.block_elements * obj.itemsize
            clock.charge(
                f.imbalance
                * sysm.cost.pfs_read_time(nbytes, 1, f.stripe_count, readers),
                "pfs_read",
            )
            self._resident.add((name, int(b)))

    def _eval_first(self, name: str, interval: Interval) -> np.ndarray:
        sysm = self.system
        obj = sysm.get_object(name)
        blocks = self._blocks[name]
        surviving = np.flatnonzero(
            interval.overlaps_range_arrays(blocks.bmin, blocks.bmax)
        )
        self._charge_block_reads(name, surviving)
        per_proc = surviving.size * blocks.block_elements / self.n_processes
        for clock in self.clocks:
            clock.charge(sysm.cost.scan_time(int(per_proc)), "scan")
        return np.flatnonzero(interval.mask(obj.data)).astype(np.int64)

    def _eval_candidates(
        self, name: str, interval: Interval, coords: np.ndarray
    ) -> np.ndarray:
        sysm = self.system
        obj = sysm.get_object(name)
        blocks = self._blocks[name]
        coord_blocks = np.minimum(coords // blocks.block_elements, blocks.n_blocks - 1)
        held = np.bincount(coord_blocks, minlength=blocks.n_blocks) > 0
        # Blocks whose min/max miss the condition are pruned; coordinates
        # in them cannot match.
        held &= interval.overlaps_range_arrays(blocks.bmin, blocks.bmax)
        cand_blocks = np.flatnonzero(held)
        coords = coords[held[coord_blocks]]
        self._charge_block_reads(name, cand_blocks)
        for clock in self.clocks:
            clock.charge(
                sysm.cost.scan_time(int(coords.size / self.n_processes)), "scan"
            )
        return coords[interval.mask(obj.data[coords])]
