"""Deterministic fault plans: seeded, reproducible failure injection.

The query service must survive the failure modes a production deployment
sees — failed or slow PFS reads, crashed or straggling servers (the same
concerns that drove the parallel-zone query federation of
Nieto-Santisteban et al., MSR-TR-2005-169).  A
:class:`FaultPlan` decides *when* those faults fire, and does so
**deterministically**: every decision is a pure function of

* the plan's ``seed``,
* the fault *kind* (``pfs_read_error``, ``server_crash``, ...),
* a stable *site key* naming the operation (a region cache key or a
  server id), and
* a per-``(kind, key)`` draw counter.

No wall-clock randomness is involved, so the same seed replays the exact
same fault sequence — bit-identical query results, retry counts, and
simulated elapsed times across runs (regression-tested).  The engine
advances every draw sequence from one thread at a time; the counters sit
behind a lock because :class:`~repro.query.async_client.AsyncQueryClient`
drives the engine from a background thread.

With every rate at zero a plan never draws and never perturbs a cost, so
installing a zero-rate plan is bit-identical to running without one.
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..errors import PDCError

__all__ = ["FaultConfig", "FaultPlan", "ZERO_FAULTS"]

#: Draws map a 64-bit digest prefix onto [0, 1).
_DRAW_DENOM = float(1 << 64)
#: How much slower a read hit by a latency spike is, and a straggling server.
PFS_SLOW_FACTOR = 4.0
SERVER_SLOW_FACTOR = 3.0
#: Backoff before the first retry of a failed read, and its growth per retry.
RETRY_BACKOFF_S = 1.0e-3
BACKOFF_MULTIPLIER = 2.0


@dataclass(frozen=True)
class FaultConfig:
    """Fault rates and recovery knobs of one :class:`FaultPlan`.

    Rates are per-decision probabilities in ``[0, 1]``.  A rate of zero
    disables that fault kind entirely (no draw is made, so costs are
    untouched).
    """

    #: Probability one PFS read attempt fails (retried with backoff).
    pfs_read_error_rate: float = 0.0
    #: Probability one PFS read suffers a latency spike
    #: (:data:`PFS_SLOW_FACTOR` times slower).
    pfs_slow_rate: float = 0.0
    #: Probability a server crashes when work is dispatched to it.
    server_crash_rate: float = 0.0
    #: Probability a server straggles for one query
    #: (:data:`SERVER_SLOW_FACTOR` times slower).
    server_slow_rate: float = 0.0
    #: Recovery: retries per read before giving up (each after the
    #: :meth:`FaultPlan.backoff_s` charged to the reader's simulated clock).
    max_retries: int = 3
    #: Per-query simulated-seconds budget; None disables query timeouts.
    query_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        for name in (
            "pfs_read_error_rate", "pfs_slow_rate", "server_crash_rate", "server_slow_rate",
        ):
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise PDCError(f"{name}={rate!r} outside [0, 1]")
        for name in ("max_retries", "query_timeout_s"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise PDCError(f"{name}={value!r} must be finite")
        if self.max_retries < 0:
            raise PDCError("max_retries must be >= 0")
        if self.query_timeout_s is not None and self.query_timeout_s <= 0:
            raise PDCError("query_timeout_s must be positive (or None)")


#: The do-nothing configuration (every rate zero).
ZERO_FAULTS = FaultConfig()


@dataclass
class FaultPlan:
    """Seeded fault oracle shared by every layer of one deployment.

    Install with :meth:`repro.pdc.system.PDCSystem.set_fault_plan`; the
    system threads the plan through its servers and the query engine.
    """

    seed: int
    config: FaultConfig = field(default_factory=FaultConfig)

    def __post_init__(self) -> None:
        self._counters: Dict[Tuple[str, str], int] = {}
        self._injected: Dict[str, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ draws
    def _draw(self, kind: str, key: str) -> float:
        """The next uniform [0, 1) draw of the ``(kind, key)`` sequence."""
        with self._lock:
            ck = (kind, key)
            n = self._counters.get(ck, 0)
            self._counters[ck] = n + 1
        digest = hashlib.blake2b(
            f"{self.seed}:{kind}:{key}:{n}".encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") / _DRAW_DENOM

    def _fires(self, kind: str, key: str, rate: float) -> bool:
        """Decide one fault; zero-rate kinds never draw (and so never
        perturb the shared counters)."""
        if rate <= 0.0:
            return False
        fired = rate >= 1.0 or self._draw(kind, key) < rate
        if fired:
            with self._lock:
                self._injected[kind] = self._injected.get(kind, 0) + 1
        return fired

    # ------------------------------------------------------------ fault kinds
    def pfs_read_fails(self, key: str) -> bool:
        """Does this read attempt of ``key`` fail?  (One draw per attempt —
        faults are transient, so retries re-draw.)"""
        return self._fires("pfs_read_error", key, self.config.pfs_read_error_rate)

    def pfs_slow_factor(self, key: str) -> float:
        """Latency-spike multiplier for one read of ``key`` (1.0 = none)."""
        if self._fires("pfs_slow", key, self.config.pfs_slow_rate):
            return PFS_SLOW_FACTOR
        return 1.0

    def server_crashes(self, server_id: int) -> bool:
        """Does this server crash at this dispatch point?"""
        return self._fires("server_crash", str(server_id), self.config.server_crash_rate)

    def server_slow_factor(self, server_id: int) -> float:
        """Straggler multiplier for one server for one query (1.0 = none)."""
        if self._fires("server_slow", str(server_id), self.config.server_slow_rate):
            return SERVER_SLOW_FACTOR
        return 1.0

    # --------------------------------------------------------------- recovery
    def backoff_s(self, attempt: int) -> float:
        """Simulated seconds to back off before retry ``attempt`` (1-based):
        ``RETRY_BACKOFF_S * BACKOFF_MULTIPLIER ** (attempt - 1)``."""
        return RETRY_BACKOFF_S * BACKOFF_MULTIPLIER ** max(0, attempt - 1)

    # ------------------------------------------------------------- inspection
    def injected(self, kind: Optional[str] = None) -> int:
        """Faults injected so far, total or for one kind."""
        with self._lock:
            if kind is not None:
                return self._injected.get(kind, 0)
            return sum(self._injected.values())

    def snapshot(self) -> Dict[str, int]:
        """Injected-fault counts by kind (copy) — determinism checks and
        the ``faults`` CLI report."""
        with self._lock:
            return dict(self._injected)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed}, injected={self.injected()})"
