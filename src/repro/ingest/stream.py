"""Epoch-batched continuous ingest over a :class:`PDCSystem`.

The paper treats PDC objects as write-once-read-many; this module opens
the read-write scenario the service tier needs.  An
:class:`IngestStream` buffers appends/overwrites stamped with simulated
arrival times and applies them in **deterministic epochs** — fixed
arrival-time windows of :attr:`IngestConfig.epoch_interval_s` simulated
seconds.  Everything downstream is charged on the simulated clocks:

* **Incremental histogram deltas** (``maintenance="delta"``): instead of
  rebuilding a written region's mergeable histogram, the epoch's
  overwritten/appended values become same-grid delta histograms that are
  exactly subtracted/merged (Algorithm 1 merges as the delta unit).  The
  maintained counts and min/max are *exact* — bit-identical content to a
  from-scratch rebuild — so query answers, pruning decisions, and
  read-gating never diverge from rebuild mode.  Once half of a region
  (:data:`repro.ingest.maintain.HIST_REBUILD_FRACTION`) has been
  overwritten since its last rebuild, the histogram is rebuilt from
  scratch (drift bound).

* **WAH bitmap delta segments**: written positions are appended to the
  region's index as delta segments; probes treat delta positions as
  candidates (they force the raw-region verify read) until **background
  compaction** — charged to the owning server's clock — folds them into
  a fresh bitmap.

* **Sorted-replica staleness** follows
  :attr:`repro.pdc.system.PDCConfig.replica_staleness_policy`.

Epoch application, maintenance decisions, and compaction scheduling
depend only on the op stream and simulated clocks, so a same-seed run is
bit-reproducible (the bench pins a fingerprint).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..errors import PDCError
from .maintain import check_maintenance, check_offset, check_payload

if TYPE_CHECKING:
    from ..pdc.system import PDCSystem

__all__ = [
    "IngestConfig",
    "WriteOp",
    "WriteSpec",
    "WriteResult",
    "EpochResult",
    "IngestStream",
]


#: Tenant label stamped on the monitor's ingest observations.
INGEST_TENANT = "ingest"

#: :meth:`IngestStream.totals` key -> the :class:`EpochResult` field it sums.
_SUMMED = (
    ("ops", "n_ops"),
    ("elements", "n_elements"),
    ("hist_merges", "hist_merges"),
    ("hist_rebuilds", "hist_rebuilds"),
    ("minmax_rescans", "minmax_rescans"),
    ("index_delta_appends", "index_delta_appends"),
    ("index_rebuilds", "index_rebuilds"),
    ("compactions", "compactions"),
)


@dataclass(frozen=True)
class IngestConfig:
    """Knobs of one ingest stream."""

    #: Epoch width in simulated seconds of *arrival* time.  Ops are
    #: applied when :meth:`IngestStream.advance_to` passes their epoch's
    #: right boundary (or at :meth:`IngestStream.flush`).
    epoch_interval_s: float = 0.5
    #: ``"delta"`` maintains histograms/indexes incrementally;
    #: ``"rebuild"`` rebuilds per write (the legacy
    #: ``update_object_region`` behaviour).
    maintenance: str = "delta"
    #: Compact a region's bitmap once its uncompacted delta positions
    #: exceed this fraction of the region (0 disables compaction).
    index_compact_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.epoch_interval_s <= 0:
            raise PDCError("epoch_interval_s must be > 0")
        check_maintenance(self.maintenance)
        if not (0.0 <= self.index_compact_fraction <= 1.0):
            raise PDCError("index_compact_fraction must be in [0, 1]")


@dataclass(frozen=True)
class WriteOp:
    """One buffered write (``offset=None`` appends at the tail)."""

    seq: int
    t_s: float
    name: str
    offset: Optional[int]
    values: np.ndarray


@dataclass(frozen=True)
class WriteSpec:
    """A write request as admitted by the service frontend (the write
    analogue of :class:`repro.query.executor.QuerySpec`)."""

    object_name: str
    values: np.ndarray
    #: ``None`` appends at the tail; an int overwrites in place.
    offset: Optional[int] = None


@dataclass
class WriteResult:
    """Outcome of one applied :class:`WriteSpec` (shaped so the service
    frontend can account it exactly like a :class:`QueryResult`)."""

    object_name: str
    n_elements: int
    regions: List[int]
    epoch: int
    elapsed_s: float = 0.0
    complete: bool = True
    timed_out: bool = False


@dataclass
class EpochResult:
    """Aggregate outcome of one applied ingest epoch."""

    epoch: int
    #: Left edge of the epoch's arrival window.
    t_open_s: float
    #: Simulated instant the epoch was applied at (post-barrier).
    t_apply_s: float
    n_ops: int = 0
    n_elements: int = 0
    #: object name -> affected region ids (sorted, deduplicated).
    regions: Dict[str, List[int]] = field(default_factory=dict)
    hist_merges: int = 0
    hist_rebuilds: int = 0
    minmax_rescans: int = 0
    index_delta_appends: int = 0
    index_rebuilds: int = 0
    compactions: int = 0
    #: staleness action -> count (e.g. ``{"mark_dirty": 2}``).
    replica_actions: Dict[str, int] = field(default_factory=dict)
    #: Apply instant minus the earliest buffered op's arrival.
    lag_s: float = 0.0


class IngestStream:
    """Buffers writes and applies them in deterministic arrival-time
    epochs with incremental derived-state maintenance.

    Typical use::

        stream = IngestStream(system, IngestConfig(epoch_interval_s=1.0))
        stream.update("energy", offset=100, values=new_vals, t_s=0.2)
        stream.append("energy", more_vals, t_s=0.7)
        stream.advance_to(2.0)   # applies every epoch closed by t=2.0
        stream.flush()           # applies whatever is left
    """

    def __init__(self, system: PDCSystem, config: Optional[IngestConfig] = None) -> None:
        self.system = system
        self.config = config or IngestConfig()
        self._pending: List[WriteOp] = []
        self._seq = 0
        #: Arrival times below this are inside already-applied epochs.
        self._applied_until_s = 0.0
        #: Lifetime counters across every applied epoch (:meth:`totals`);
        #: an epoch's own :class:`EpochResult` goes to its caller.
        self._totals: Dict[str, float] = {
            "epochs": 0, **{key: 0 for key, _ in _SUMMED}, "max_lag_s": 0.0,
        }

    # -------------------------------------------------------------- buffering
    def _submit(
        self, name: str, offset: Optional[int], values: np.ndarray,
        t_s: Optional[float],
    ) -> WriteOp:
        if offset is not None:
            check_offset(offset)
        values = check_payload(values)
        if t_s is None:
            t_s = self.system.client_clock.now
        if self._pending and t_s < self._pending[-1].t_s:
            raise PDCError(
                f"write at t={t_s} arrives before the previously buffered "
                f"op at t={self._pending[-1].t_s} (arrival order required)"
            )
        if t_s < self._applied_until_s:
            raise PDCError(
                f"write at t={t_s} belongs to an already-applied epoch "
                f"(applied through t={self._applied_until_s})"
            )
        op = WriteOp(
            seq=self._seq, t_s=float(t_s), name=name,
            offset=None if offset is None else int(offset), values=values,
        )
        self._seq += 1
        self._pending.append(op)
        return op

    def update(
        self, name: str, offset: int, values: np.ndarray,
        t_s: Optional[float] = None,
    ) -> WriteOp:
        """Buffer an in-place overwrite arriving at simulated ``t_s``
        (default: the client clock's now)."""
        return self._submit(name, offset, values, t_s)

    def append(
        self, name: str, values: np.ndarray, t_s: Optional[float] = None
    ) -> WriteOp:
        """Buffer a tail append arriving at simulated ``t_s``."""
        return self._submit(name, None, values, t_s)

    # ------------------------------------------------------------ application
    def epoch_of(self, t_s: float) -> int:
        return int(t_s // self.config.epoch_interval_s)

    def advance_to(self, t_s: float) -> List[EpochResult]:
        """Apply every epoch whose arrival window closes at or before
        ``t_s``; returns the applied epochs (possibly empty).  Empty
        epochs are skipped, not recorded."""
        applied: List[EpochResult] = []
        width = self.config.epoch_interval_s
        while self._pending:
            e = self.epoch_of(self._pending[0].t_s)
            if (e + 1) * width > t_s:
                break
            ops = [op for op in self._pending if self.epoch_of(op.t_s) == e]
            self._pending = self._pending[len(ops):]
            applied.append(self._apply(e, ops, apply_at=(e + 1) * width))
        self._applied_until_s = max(self._applied_until_s, float(t_s))
        return applied

    def flush(self) -> Optional[EpochResult]:
        """Apply every remaining buffered op as one closing epoch at the
        current simulated instant (or the last op's arrival, whichever is
        later).  ``None`` when nothing is buffered."""
        if not self._pending:
            return None
        ops, self._pending = self._pending, []
        e = self.epoch_of(ops[0].t_s)
        t = max(
            max(op.t_s for op in ops),
            max(c.now for c in self.system.all_clocks()),
        )
        return self._apply(e, ops, apply_at=t)

    def _apply(self, epoch: int, ops: List[WriteOp], apply_at: float) -> EpochResult:
        sysm = self.system
        cfg = self.config
        # The epoch applies at a bulk-synchronous barrier: no clock runs
        # behind the apply instant afterwards.
        for c in sysm.all_clocks():
            c.advance_to(apply_at, category="ingest_wait")
        t_apply = sysm.sync_clocks()
        result = EpochResult(
            epoch=epoch,
            t_open_s=epoch * cfg.epoch_interval_s,
            t_apply_s=t_apply,
            lag_s=t_apply - min(op.t_s for op in ops),
        )
        for op in ops:
            if op.offset is None:
                affected = sysm.append_to_object(
                    op.name, op.values, maintenance=cfg.maintenance
                )
            else:
                affected = sysm.update_object_region(
                    op.name, op.offset, op.values, maintenance=cfg.maintenance
                )
            result.n_ops += 1
            result.n_elements += int(op.values.size)
            got = result.regions.setdefault(op.name, [])
            got.extend(r for r in affected if r not in got)
            stats = sysm.last_write_stats
            result.hist_merges += stats.get("hist_merges", 0)
            result.hist_rebuilds += stats.get("hist_rebuilds", 0)
            result.minmax_rescans += stats.get("minmax_rescans", 0)
            result.index_delta_appends += stats.get("index_delta_appends", 0)
            result.index_rebuilds += stats.get("index_rebuilds", 0)
            for key, n in stats.items():
                if key.startswith("replica_"):
                    action = key[len("replica_"):]
                    result.replica_actions[action] = (
                        result.replica_actions.get(action, 0) + n
                    )
        for name in result.regions:
            result.regions[name].sort()
        result.compactions = self._compact(result)
        self._applied_until_s = max(self._applied_until_s, apply_at)
        totals = self._totals
        totals["epochs"] += 1
        for key, name in _SUMMED:
            totals[key] += getattr(result, name)
        totals["max_lag_s"] = max(totals["max_lag_s"], result.lag_s)
        # The system's monitor as installed now, like every other hook site.
        monitor = sysm.monitor
        if monitor is not None:
            monitor.on_ingest_epoch(
                sysm.sync_clocks(),
                INGEST_TENANT,
                epoch=result.epoch,
                n_ops=result.n_ops,
                n_elements=result.n_elements,
                lag_s=result.lag_s,
                hist_merges=result.hist_merges,
                hist_rebuilds=result.hist_rebuilds,
                compactions=result.compactions,
            )
        return result

    def _compact(self, result: EpochResult) -> int:
        """Background compaction: fold delta segments of regions whose
        uncompacted fraction crossed the threshold, charged to the owning
        servers."""
        cfg = self.config
        if cfg.index_compact_fraction <= 0.0:
            return 0
        sysm = self.system
        done = 0
        for name in sorted(result.regions):
            obj = sysm.objects.get(name)
            if obj is None or obj.indexes is None:
                continue
            deltas = obj.indexes.delta
            # Compacting a region zeroes its own delta count, no other's,
            # so the regions over threshold are picked before the first.
            over = deltas >= cfg.index_compact_fraction * obj.counts
            for rid in np.flatnonzero(over).tolist():
                n_delta = int(deltas[rid])
                sysm.compact_region_index(name, rid)
                done += 1
                if sysm.monitor is not None:
                    sysm.monitor.on_compaction(
                        sysm.sync_clocks(), name, rid, n_delta
                    )
        return done

    # -------------------------------------------------------------- reporting
    def totals(self) -> Dict[str, float]:
        """Lifetime counters across all applied epochs: their count, the
        sums of their counters and the largest apply lag."""
        return dict(self._totals)
