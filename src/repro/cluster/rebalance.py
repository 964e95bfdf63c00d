"""Copy-then-commit region migration between serving sets.

The paper assigns a query's regions to servers *"in a load-balanced
fashion"* (§III-C) with a fixed fleet.  Routing here has one rule for
every fleet: region ``rid`` is served by ``serving[rid % len(serving)]``,
where ``serving`` is the ascending id list of the live and draining
servers (:attr:`PDCSystem.alive_servers`).  The fleet changes only by
membership transitions, so a migration is fully determined by
membership: its *target* is the serving set after every joining server
activates and every draining server leaves.

**Copy-then-commit.**  A :class:`Migration` moves the cached region
bytes whose owner differs between the current serving set and the
target, charging simulated transfer time (bytes over the interconnect
via the cost model) to *both* ends of every copy, throttled to
``max_concurrent_moves`` per round with a clock barrier between rounds.
Until :meth:`Migration.commit`, routing still follows the current
serving set — queries, ingest epochs, and faults that interleave with
the copy phase see a consistent cluster.  Commit is a single instant:
cached entries transfer (each region's bytes leave the source exactly
when they land on the destination — no region is lost or duplicated,
even if the migration is aborted by a crash first), joining servers
activate, and drained servers leave.  After a commit, routing is
position-identical to a static cluster built at the final view.

:class:`ClusterManager` drives the lifecycle: ``scale_out`` /
``scale_in`` / ``rebalance`` plan and run migrations, and a membership
subscription aborts any in-flight migration when a server crashes (the
crash re-routes over the survivors, and in-flight work is abandoned,
never half-applied).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PDCError
from ..types import is_count
from .membership import DRAINING, JOINING, LIVE

__all__ = ["RegionMove", "Migration", "ClusterManager"]


def _region_id_of_key(key) -> Optional[int]:
    """Region id parsed from a cache key (``name:replica:r{rid}``)."""
    if not isinstance(key, str):
        return None
    _, sep, tail = key.rpartition(":r")
    if not sep or not tail.isdigit():
        return None
    return int(tail)


def _moved_share(source: Sequence[int], target: Sequence[int]) -> float:
    """Fraction of the region space changing owner between two serving
    sets: ownership repeats with period ``lcm(len(source), len(target))``."""
    ids = np.arange(math.lcm(len(source), len(target)), dtype=np.int64)
    src = np.asarray(source, dtype=np.int64)[ids % len(source)]
    dst = np.asarray(target, dtype=np.int64)[ids % len(target)]
    return float((src != dst).sum()) / ids.size


@dataclass(frozen=True)
class RegionMove:
    """All of one region's cached bytes moving from one server to another."""

    region_id: int
    src_id: int
    dst_id: int
    #: Cache keys transferring (every replica flavour cached for the
    #: region on the source).
    keys: Tuple[str, ...]
    #: Total virtual bytes of those entries (what transfer time charges).
    vbytes: float


class Migration:
    """One copy-then-commit change of the serving set on a live system.

    Stepwise API so tests (and faults) can interleave work mid-flight:
    :meth:`step` copies the next throttled round of moves, :meth:`run`
    drains every round and commits, :meth:`abort` abandons in-flight
    work (the current serving set stays authoritative; nothing was
    applied).
    """

    def __init__(self, system, max_concurrent_moves: int = 4) -> None:
        if not is_count(max_concurrent_moves):
            raise PDCError(
                f"max_concurrent_moves must be an integer >= 1, got {max_concurrent_moves!r}"
            )
        registry = system.membership
        self.system = system
        self.max_concurrent_moves = int(max_concurrent_moves)
        self.state = "planned"
        self.t_begin = float(max(c.now for c in system.all_clocks()))
        self.t_commit: Optional[float] = None
        self._cursor = 0
        #: Membership generation the plan was made at; commit refuses a
        #: plan that membership has moved past.
        self.generation = registry.generation
        #: Serving ids now, and after commit (joiners in, drainers out).
        self.source: Tuple[int, ...] = tuple(registry.serving_ids)
        self.target: Tuple[int, ...] = tuple(registry.ids_in(LIVE, JOINING))
        if not self.target:
            raise PDCError("migration would leave no serving server")
        self.moves: List[RegionMove] = self._plan()
        #: Fraction of the region space changing owner, independent of
        #: cache warmth.
        self.moved_share = _moved_share(self.source, self.target)

    # ------------------------------------------------------------- planning
    def _plan(self) -> List[RegionMove]:
        """Group the source servers' cached entries that the target
        re-homes into per-(region, src, dst) moves, deterministic order."""
        grouped: Dict[Tuple[int, int, int], Tuple[List[str], float]] = {}
        n_src, n_dst = len(self.source), len(self.target)
        for sid in self.source:
            for key, vbytes in self.system.servers[sid].cache.entries():
                rid = _region_id_of_key(key)
                if rid is None:
                    continue
                if self.source[rid % n_src] != sid:
                    continue  # stale residue from an older serving set
                dst = self.target[rid % n_dst]
                if dst == sid:
                    continue
                keys, total = grouped.setdefault((rid, sid, dst), ([], 0.0))
                keys.append(key)
                grouped[(rid, sid, dst)] = (keys, total + float(vbytes))
        return [
            RegionMove(
                region_id=rid, src_id=src, dst_id=dst,
                keys=tuple(sorted(keys)), vbytes=total,
            )
            for (rid, src, dst), (keys, total) in sorted(grouped.items())
        ]

    @property
    def total_vbytes(self) -> float:
        return sum(m.vbytes for m in self.moves)

    # ------------------------------------------------------------ execution
    def step(self) -> bool:
        """Copy the next round of at most ``max_concurrent_moves`` moves;
        False once every move has been copied.  Each round starts at a
        barrier over the round's participants and charges both ends of
        every transfer under ``"migration"``."""
        if self.state == "aborted":
            raise PDCError("migration was aborted")
        if self.state == "committed":
            raise PDCError("migration already committed")
        if self._cursor >= len(self.moves):
            return False
        self.state = "copying"
        batch = self.moves[self._cursor : self._cursor + self.max_concurrent_moves]
        self._cursor += len(batch)
        servers = self.system.servers
        involved = sorted({m.src_id for m in batch} | {m.dst_id for m in batch})
        t0 = max(servers[sid].clock.now for sid in involved)
        for sid in involved:
            servers[sid].clock.advance_to(t0)
        for m in batch:
            dt = self.system.cost.net_time(m.vbytes, scaled=False)
            servers[m.src_id].clock.charge(dt, "migration")
            servers[m.dst_id].clock.charge(dt, "migration")
        return True

    def commit(self) -> None:
        """Atomically apply the migration: transfer cache entries,
        activate joining servers, retire draining ones, and clear the
        selection caches (routing changed, as after a crash)."""
        if self.state == "aborted":
            raise PDCError("migration was aborted")
        if self.state == "committed":
            raise PDCError("migration already committed")
        if self._cursor < len(self.moves):
            raise PDCError(
                f"cannot commit: {len(self.moves) - self._cursor} moves not copied"
            )
        sysm = self.system
        registry = sysm.membership
        if registry.generation != self.generation:
            raise PDCError(
                f"cannot commit: membership moved from generation "
                f"{self.generation} to {registry.generation} since the plan"
            )
        scale = sysm.cost.virtual_scale
        servers = sysm.servers
        resident = {
            sid: dict(servers[sid].cache.entries())
            for sid in sorted({m.src_id for m in self.moves})
        }
        for m in self.moves:
            src, dst = servers[m.src_id], servers[m.dst_id]
            for key in m.keys:
                vbytes = resident[m.src_id].get(key)
                if vbytes is None:
                    continue  # invalidated (ingest/compaction) mid-copy
                dst.cache.put(key, nbytes=vbytes / scale)
                src.cache.invalidate(key)
        t = float(max(c.now for c in sysm.all_clocks()))
        for sid in registry.ids_in(JOINING):
            registry.activate(t, sid)
        for sid in registry.ids_in(DRAINING):
            registry.leave(t, sid)
        sysm._notify_invalidation(None)
        self.state = "committed"
        self.t_commit = t
        sysm.monitor.on_migration(
            t_s=t,
            n_moves=len(self.moves),
            moved_vbytes=self.total_vbytes,
            duration_s=t - self.t_begin,
            status="committed",
        )

    def abort(self) -> None:
        """Abandon the migration: nothing applied, the current serving set
        stays authoritative, copied-but-uncommitted bytes are discarded
        (their transfer time stays charged — wasted work is still work)."""
        if self.state in ("committed", "aborted"):
            return
        self.state = "aborted"
        t = float(max(c.now for c in self.system.all_clocks()))
        self.system.monitor.on_migration(
            t_s=t,
            n_moves=self._cursor,
            moved_vbytes=sum(m.vbytes for m in self.moves[: self._cursor]),
            duration_s=t - self.t_begin,
            status="aborted",
        )

    def run(self) -> "Migration":
        while self.step():
            pass
        self.commit()
        return self


@dataclass
class MigrationRecord:
    """Summary of one finished migration (the manager's history unit)."""

    t_begin: float
    t_end: float
    status: str
    n_moves: int
    moved_vbytes: float
    moved_share: float
    generation: int

    def to_record(self) -> Dict[str, object]:
        return {
            "t_begin": self.t_begin,
            "t_end": self.t_end,
            "status": self.status,
            "n_moves": self.n_moves,
            "moved_vbytes": self.moved_vbytes,
            "moved_share": self.moved_share,
            "generation": self.generation,
        }


class ClusterManager:
    """Elastic-cluster driver: scaling out, scaling in, and completing
    pending joins and drains.

    Owns the in-flight :class:`Migration` (at most one) and aborts it if
    any member crashes mid-flight — the crash re-routes over the
    survivors, and the abandoned migration is simply re-planned by the
    next scaling call.
    """

    def __init__(self, system, max_concurrent_moves: int = 4) -> None:
        if not is_count(max_concurrent_moves):
            raise PDCError(
                f"max_concurrent_moves must be an integer >= 1, got {max_concurrent_moves!r}"
            )
        self.system = system
        self.max_concurrent_moves = int(max_concurrent_moves)
        self.history: List[MigrationRecord] = []
        self._active: Optional[Migration] = None
        system.membership.subscribe(self._on_membership_event)

    # -------------------------------------------------------------- events
    def _on_membership_event(self, event) -> None:
        if event.kind == "crash" and self._active is not None:
            mig = self._active
            if mig.state in ("planned", "copying"):
                mig.abort()
                self._record(mig)
            self._active = None

    def _record(self, mig: Migration) -> None:
        self.history.append(
            MigrationRecord(
                t_begin=mig.t_begin,
                t_end=mig.t_commit
                if mig.t_commit is not None
                else float(max(c.now for c in self.system.all_clocks())),
                status=mig.state,
                n_moves=len(mig.moves),
                moved_vbytes=mig.total_vbytes,
                moved_share=mig.moved_share,
                generation=self.system.membership.generation,
            )
        )

    # ------------------------------------------------------------- scaling
    def _refuse_in_flight(self) -> None:
        if self._active is not None and self._active.state in ("planned", "copying"):
            raise PDCError("a migration is already in flight")

    def begin_migration(self) -> Migration:
        """Plan the migration that completes the pending joins and drains,
        without running it (stepwise control for tests and fault
        interleavings)."""
        self._refuse_in_flight()
        mig = Migration(self.system, max_concurrent_moves=self.max_concurrent_moves)
        self._active = mig
        return mig

    def _finish(self, mig: Migration) -> Migration:
        if mig.state != "committed":
            while mig.step():
                pass
            mig.commit()
        self._record(mig)
        if self._active is mig:
            self._active = None
        return mig

    def scale_out(self, n: int = 1) -> Migration:
        """Add ``n`` servers and migrate them in (join → copy → commit
        activates them).  A refused call changes nothing."""
        if not is_count(n):
            raise PDCError(f"scale_out: n must be an integer >= 1, got {n!r}")
        self._refuse_in_flight()
        for _ in range(n):
            self.system.add_server()
        return self._finish(self.begin_migration())

    def scale_in(self, n: int = 1) -> Migration:
        """Drain the ``n`` highest-id live servers and migrate their
        shares away (drain → copy → commit retires them).  A refused call
        changes nothing."""
        if not is_count(n):
            raise PDCError(f"scale_in: n must be an integer >= 1, got {n!r}")
        registry = self.system.membership
        live = registry.ids_in(LIVE)
        if len(live) - n < 1:
            raise PDCError("scale_in would leave no live server")
        self._refuse_in_flight()
        t = float(max(c.now for c in self.system.all_clocks()))
        for sid in live[-n:]:
            registry.drain(t, sid)
        return self._finish(self.begin_migration())

    def rebalance(self) -> Migration:
        """Complete whatever joins and drains are pending (e.g. after an
        explicit drain or an aborted migration)."""
        return self._finish(self.begin_migration())

    # ----------------------------------------------------------- inspection
    @property
    def in_flight(self) -> Optional[Migration]:
        return self._active

    def to_records(self) -> List[Dict[str, object]]:
        return [r.to_record() for r in self.history]
