"""Simulated files on a striped parallel file system.

PDC's internal data files (§III-E) are hidden from users and striped across
the parallel file system's storage devices.  :class:`SimFile` stores the
actual payload as 1-D numpy arrays (so query answers are real), while
:class:`ParallelFileSystem` accounts for simulated read/write time through a
:class:`~repro.storage.costmodel.CostModel`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as np

from ..errors import StorageError
from .costmodel import CostModel, SimClock

__all__ = [
    "SimFile", "ParallelFileSystem", "PDC_STRIPE_COUNT", "HDF5_STRIPE_COUNT", "HDF5_IMBALANCE",
]

#: Stripe width of PDC's internal data files (PDC distributes data across
#: storage devices, §III-E): every file a deployment creates but the
#: comparison "HDF5" ones.
PDC_STRIPE_COUNT = 64
#: Stripe width of the comparison "HDF5" files (typical default striping —
#: the source of HDF5-F's ~2x slower reads).
HDF5_STRIPE_COUNT = 8
#: OST-hotspot straggler factor of the HDF5 files (§III-E: PDC's data
#: distribution + read aggregation avoids this; plain files don't).
HDF5_IMBALANCE = 2.2


class SimFile:
    """One file: a named, striped 1-D payload of fixed dtype, held as
    chunks — one array, or one per region of an index file, so a rewrite
    replaces only the chunks that changed.

    ``imbalance`` models OST hotspotting: PDC distributes its internal data
    files across the PFS's storage devices and aggregates small reads
    (§III-E), so its files read at balance ~1.0; ordinary files with default
    striping collide on popular OSTs and straggle (the paper attributes
    HDF5-F's ~2× slower reads to exactly this).
    """

    def __init__(
        self,
        path: str,
        data: Union[np.ndarray, List[np.ndarray]],
        stripe_count: int,
        imbalance: float = 1.0,
    ) -> None:
        chunks = list(data) if isinstance(data, (list, tuple)) else [data]
        chunks = [np.ascontiguousarray(c) for c in chunks]
        if not chunks or any(
            c.ndim != 1 or c.dtype != chunks[0].dtype for c in chunks
        ):
            raise StorageError(
                f"SimFile {path!r} payload must be 1-D chunks of one dtype"
            )
        if stripe_count < 1:
            raise StorageError("stripe_count must be >= 1")
        if imbalance < 1.0:
            raise StorageError("imbalance factor must be >= 1.0")
        self.path = path
        self.chunks = chunks
        self.stripe_count = stripe_count
        self.imbalance = imbalance
        self.n_elements = sum(int(c.shape[0]) for c in chunks)
        self.itemsize = int(chunks[0].dtype.itemsize)
        self.nbytes = self.n_elements * self.itemsize
        self._data = chunks[0] if len(chunks) == 1 else None

    @property
    def data(self) -> np.ndarray:
        """The whole payload: the one chunk itself, or the chunks joined on
        first read."""
        if self._data is None:
            self._data = np.concatenate(self.chunks)
        return self._data


class ParallelFileSystem:
    """A namespace of :class:`SimFile` objects with Lustre-like striping.

    Reads return numpy views into the stored arrays (no copies — see the
    hpc guide's "views not copies" rule); time is charged to the caller's
    clock when one is supplied.
    """

    def __init__(self, cost: Optional[CostModel] = None, *, metrics) -> None:
        self.cost = cost or CostModel()
        self._files: Dict[str, SimFile] = {}
        #: Total (virtual) bytes written since creation.  PDC query reads
        #: are counted where they are charged (``PDCServer.touch_share``).
        self.bytes_written: float = 0.0
        # The deployment's MetricsRegistry feed (child resolved once).
        self._m_bytes_written = metrics.counter(
            "pdc_pfs_bytes_written_virtual_total",
            "Virtual bytes written to the simulated PFS.",
        )

    # -------------------------------------------------------------- namespace
    def exists(self, path: str) -> bool:
        return path in self._files

    def stat(self, path: str) -> SimFile:
        try:
            return self._files[path]
        except KeyError:
            raise StorageError(f"no such file: {path!r}") from None

    def listdir(self, prefix: str = "") -> List[str]:
        return sorted(p for p in self._files if p.startswith(prefix))

    def delete(self, path: str) -> None:
        if path not in self._files:
            raise StorageError(f"no such file: {path!r}")
        del self._files[path]

    def total_bytes(self, prefix: str = "") -> int:
        """Real bytes stored under ``prefix`` (index-size accounting)."""
        return sum(f.nbytes for p, f in self._files.items() if p.startswith(prefix))

    # ------------------------------------------------------------------ write
    def create(
        self,
        path: str,
        data: Union[np.ndarray, List[np.ndarray]],
        stripe_count: Optional[int] = None,
        clock: Optional[SimClock] = None,
        imbalance: float = 1.0,
    ) -> SimFile:
        """Create ``path`` holding ``data`` (one 1-D array, or its chunks in
        order), striped :data:`PDC_STRIPE_COUNT` wide unless told otherwise;
        charges write time."""
        if path in self._files:
            raise StorageError(f"file exists: {path!r}")
        f = SimFile(
            path=path,
            data=data,
            stripe_count=stripe_count or PDC_STRIPE_COUNT,
            imbalance=imbalance,
        )
        self._files[path] = f
        self.bytes_written += self.cost.virtual_bytes(f.nbytes)
        self._m_bytes_written.inc(self.cost.virtual_bytes(f.nbytes))
        if clock is not None:
            clock.charge(
                self.cost.pfs_write_time(f.nbytes, 1, f.stripe_count),
                category="pfs_write",
            )
        return f

    # ------------------------------------------------------------------- read
    def read(
        self,
        path: str,
        start: int = 0,
        stop: Optional[int] = None,
        clock: Optional[SimClock] = None,
    ) -> np.ndarray:
        """Read elements ``[start, stop)`` of ``path`` as one contiguous
        access; returns a view."""
        f = self.stat(path)
        stop = f.n_elements if stop is None else stop
        if not (0 <= start <= stop <= f.n_elements):
            raise StorageError(
                f"extent ({start}, {stop}) out of bounds for {path!r} "
                f"with {f.n_elements} elements"
            )
        if clock is not None:
            clock.charge(
                f.imbalance
                * self.cost.pfs_read_time((stop - start) * f.itemsize, 1, f.stripe_count),
                category="pfs_read",
            )
        return f.data[start:stop]
