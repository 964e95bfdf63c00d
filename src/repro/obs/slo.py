"""Declarative SLOs with multi-window error-budget burn-rate alerts.

An :class:`SLO` names a per-tenant service-level objective over one SLI
— queue wait, shed rate, error rate, or timeout rate — as a target
fraction of *good* requests (``objective``, e.g. ``0.99``).  The
complement ``1 - objective`` is the **error budget**; the **burn rate**
over a window is

    burn = (bad fraction inside the window) / (1 - objective)

so a burn rate of 1.0 spends the budget exactly at the sustainable pace
and 5.0 exhausts it five times too fast.  Following the multi-window
pattern of SRE practice, every SLO is evaluated on two windows at once:

* a **fast** window (short, high threshold — default 5×) that catches
  sharp overload quickly, and
* a **slow** window (long, threshold 1×) that catches sustained slow
  leaks a short window averages away.

All windows are *simulated* seconds.  The monitor is event-driven:
terminal request outcomes arrive through :meth:`SLOMonitor.observe`
with their simulated timestamps, each observation (and each explicit
:meth:`~SLOMonitor.evaluate` tick) re-evaluates burn rates, and state
transitions append to a deterministic, replayable :class:`Alert` stream:
identical inputs produce a byte-identical stream
(:meth:`~SLOMonitor.fingerprint`), so a run's alerts replay exactly
from its seed.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import PDCError

__all__ = ["SLI_NAMES", "SLO", "Alert", "SLOState", "SLOMonitor"]

#: Service-level indicators an SLO can target.  Each classifies a
#: terminal request outcome as good or bad:
#:
#: * ``queue_wait`` — bad when the request waited longer than
#:   ``threshold_s`` in the queue (shed requests count bad: they waited
#:   past their deadline by definition);
#: * ``shed``      — bad when the admitted request was shed;
#: * ``error``     — bad when the dispatched request failed;
#: * ``timeout``   — bad when the completed request hit its simulated
#:   execution deadline;
#: * ``ingest_lag`` — judges ``ingest_epoch`` observations only: bad
#:   when the epoch's apply lag exceeded ``threshold_s``.
SLI_NAMES = ("queue_wait", "shed", "error", "timeout", "ingest_lag")


@dataclass(frozen=True)
class SLO:
    """One tenant's objective over one SLI (see :data:`SLI_NAMES`)."""

    name: str
    #: Tenant the SLO applies to ("*" matches every tenant).
    tenant: str
    sli: str
    #: Target good fraction, e.g. 0.99; the error budget is ``1 - objective``.
    objective: float
    #: ``queue_wait`` only: waits above this many simulated seconds are bad.
    threshold_s: Optional[float] = None
    #: Fast / slow evaluation windows, simulated seconds.
    fast_window_s: float = 60.0
    slow_window_s: float = 300.0
    #: Burn-rate thresholds per window (fire at or above).
    fast_burn: float = 5.0
    slow_burn: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise PDCError("SLO needs a non-empty name")
        if self.sli not in SLI_NAMES:
            raise PDCError(f"unknown SLI {self.sli!r}; valid: {SLI_NAMES}")
        if not (0.0 < self.objective < 1.0):
            raise PDCError(
                f"SLO {self.name!r}: objective must be in (0, 1), "
                f"got {self.objective}"
            )
        if self.sli in ("queue_wait", "ingest_lag") and (
            self.threshold_s is None or self.threshold_s < 0.0
        ):
            raise PDCError(
                f"SLO {self.name!r}: {self.sli} needs a non-negative "
                "threshold_s"
            )
        if self.fast_window_s <= 0.0 or self.slow_window_s <= 0.0:
            raise PDCError(f"SLO {self.name!r}: windows must be positive")
        if self.fast_window_s > self.slow_window_s:
            raise PDCError(
                f"SLO {self.name!r}: fast window must not exceed the slow one"
            )
        if self.fast_burn <= 0.0 or self.slow_burn <= 0.0:
            raise PDCError(f"SLO {self.name!r}: burn thresholds must be positive")

    @property
    def budget(self) -> float:
        """The error budget: allowed bad fraction."""
        return 1.0 - self.objective

    def classify(
        self,
        outcome: str,
        queue_wait_s: Optional[float],
        timed_out: bool,
    ) -> Optional[bool]:
        """Whether one terminal outcome is bad under this SLI.

        ``outcome`` is a ticket's terminal status (``done`` / ``failed``
        / ``shed``; rejected requests were never admitted and count for
        no SLI).  Returns None when the outcome is outside this SLI's
        population (e.g. a shed request for the ``error`` SLI, which
        only judges dispatched work).
        """
        if outcome == "rejected":
            return None
        if self.sli == "ingest_lag":
            # Judges ingest epochs only; queue_wait_s carries the lag.
            if outcome != "ingest_epoch" or queue_wait_s is None:
                return None
            return queue_wait_s > self.threshold_s
        if outcome == "ingest_epoch":
            # Ingest epochs are outside every request-oriented SLI.
            return None
        if self.sli == "queue_wait":
            if outcome == "shed":
                return True
            if queue_wait_s is None:
                return None
            return queue_wait_s > self.threshold_s
        if self.sli == "shed":
            return outcome == "shed"
        if self.sli == "error":
            if outcome == "shed":
                return None
            return outcome == "failed"
        # timeout
        if outcome != "done":
            return None
        return timed_out


@dataclass(frozen=True)
class Alert:
    """One transition in an SLO's burn-rate state, at a simulated instant."""

    t_s: float
    slo: str
    tenant: str
    #: Which window crossed: "fast" or "slow".
    window: str
    #: "fire" (burn reached the threshold) or "clear" (dropped below).
    kind: str
    #: Burn rate at the transition.
    burn_rate: float
    #: Fraction of the whole run's error budget consumed so far
    #: (cumulative bad / cumulative total / budget).
    budget_used: float

    def to_record(self) -> Dict[str, object]:
        """Canonical JSON-able form — the fingerprint's unit."""
        return {
            "t_s": self.t_s,
            "slo": self.slo,
            "tenant": self.tenant,
            "window": self.window,
            "kind": self.kind,
            "burn_rate": self.burn_rate,
            "budget_used": self.budget_used,
        }


@dataclass
class SLOState:
    """Live evaluation state of one SLO."""

    slo: SLO
    #: (t, bad) terminal events, time-ordered, bounded by the slow window
    #: (older events can never influence an evaluation again).
    events: Deque[Tuple[float, bool]] = field(default_factory=deque)
    total: int = 0
    bad: int = 0
    burn_fast: float = 0.0
    burn_slow: float = 0.0
    firing_fast: bool = False
    firing_slow: bool = False

    @property
    def budget_used(self) -> float:
        """Cumulative error-budget consumption over the whole run."""
        if self.total == 0:
            return 0.0
        return (self.bad / self.total) / self.slo.budget

    def _burn_over(self, t_s: float, width_s: float) -> float:
        t_start = t_s - width_s
        n = bad = 0
        for t, is_bad in self.events:
            if t_start < t <= t_s:
                n += 1
                bad += is_bad
        if n == 0:
            return 0.0
        return (bad / n) / self.slo.budget

    def evaluate(self, t_s: float) -> List[Alert]:
        """Recompute both windows at ``t_s``; return fired transitions."""
        self.burn_fast = self._burn_over(t_s, self.slo.fast_window_s)
        self.burn_slow = self._burn_over(t_s, self.slo.slow_window_s)
        out: List[Alert] = []
        for window, burn, threshold, firing_attr in (
            ("fast", self.burn_fast, self.slo.fast_burn, "firing_fast"),
            ("slow", self.burn_slow, self.slo.slow_burn, "firing_slow"),
        ):
            firing = getattr(self, firing_attr)
            now_firing = burn >= threshold
            if now_firing != firing:
                setattr(self, firing_attr, now_firing)
                out.append(
                    Alert(
                        t_s=t_s,
                        slo=self.slo.name,
                        tenant=self.slo.tenant,
                        window=window,
                        kind="fire" if now_firing else "clear",
                        burn_rate=burn,
                        budget_used=self.budget_used,
                    )
                )
        return out


class SLOMonitor:
    """Evaluates a set of SLOs over a terminal-outcome event stream.

    Deterministic and replayable: the alert stream is a pure function of
    the observation sequence (timestamps, tenants, outcomes), which on
    simulated clocks is itself a pure function of seed + config.
    """

    def __init__(self, slos: Tuple[SLO, ...] = ()) -> None:
        names = [s.name for s in slos]
        if len(set(names)) != len(names):
            raise PDCError(f"duplicate SLO names: {sorted(names)}")
        self.states: List[SLOState] = [SLOState(slo=s) for s in slos]
        self.alerts: List[Alert] = []

    # ------------------------------------------------------------ event feed
    def observe(
        self,
        t_s: float,
        tenant: str,
        outcome: str,
        queue_wait_s: Optional[float] = None,
        timed_out: bool = False,
    ) -> List[Alert]:
        """Feed one terminal request outcome and re-evaluate matching SLOs.

        Returns (and records) any alert
        transitions this observation caused.
        """
        fired: List[Alert] = []
        for st in self.states:
            slo = st.slo
            if slo.tenant != "*" and slo.tenant != tenant:
                continue
            bad = slo.classify(outcome, queue_wait_s, timed_out)
            if bad is None:
                continue
            st.events.append((t_s, bad))
            st.total += 1
            st.bad += bad
            # Events older than the slow window can never matter again.
            horizon = t_s - slo.slow_window_s
            while st.events and st.events[0][0] <= horizon:
                st.events.popleft()
            fired.extend(st.evaluate(t_s))
        self.alerts.extend(fired)
        return fired

    def evaluate(self, t_s: float) -> List[Alert]:
        """Re-evaluate every SLO at ``t_s`` without a new event — how
        alerts clear when traffic stops entirely."""
        fired: List[Alert] = []
        for st in self.states:
            fired.extend(st.evaluate(t_s))
        self.alerts.extend(fired)
        return fired

    # ------------------------------------------------------------ inspection
    def to_records(self) -> List[Dict[str, object]]:
        return [a.to_record() for a in self.alerts]

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON alert stream.  Two runs with
        identical seeds/configs must produce identical fingerprints —
        pinned by tests/obs/test_monitor.py."""
        payload = "\n".join(
            json.dumps(rec, sort_keys=True) for rec in self.to_records()
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
