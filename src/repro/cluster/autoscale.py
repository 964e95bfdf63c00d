"""Metrics-driven autoscaling over the service monitor's time series.

The autoscaler closes the loop the ROADMAP asks for: the continuous
telemetry the service already emits (`pdc_service_queue_wait_sim_seconds`
per-tenant queue waits, `pdc_service_outcomes` shed/submit events) feeds
scale decisions, so a load surge grows the fleet and a sustained lull
shrinks it — with no wall clock anywhere, every decision is a pure
function of the simulated event stream and replays bit-identically.

Control shape (the classic burn/idle hysteresis controller):

* every ``evaluate_interval_s`` of simulated time, aggregate the last
  ``window_s`` of queue-wait samples **across tenants** into one p99
  (via the same mergeable-histogram estimator the window stats use) and
  a shed fraction;
* ``breach_ticks`` consecutive breaching evaluations (p99 above
  ``target_p99_wait_s``, or shed fraction above ``max_shed_rate``)
  trigger a scale-out of ``step`` servers;
* ``idle_ticks`` consecutive idle evaluations (p99 below
  ``low_p99_wait_s`` — the separate low-water mark is the hysteresis —
  and zero sheds) trigger a scale-in;
* every action starts a ``cooldown_s`` window during which no further
  action fires (migrations need to land before the signal is trusted
  again), and the fleet is clamped to ``[min_servers, max_servers]``.

Decisions append to a replayable stream with a SHA-256 fingerprint,
mirroring the SLO alert stream's determinism contract.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import PDCError
from ..obs.timeseries import _percentiles
from ..types import is_count
from .membership import LIVE

__all__ = ["AutoscalerConfig", "ScalingDecision", "Autoscaler"]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Autoscaler knobs (all times in simulated seconds)."""

    #: Fleet clamp.
    min_servers: int = 1
    max_servers: int = 16
    #: Scale-out high-water mark on the cross-tenant p99 queue wait.
    target_p99_wait_s: float = 0.004
    #: Scale-in low-water mark (strictly below target: the hysteresis gap).
    low_p99_wait_s: float = 0.001
    #: Scale-out high-water mark on the shed fraction (sheds / submissions).
    max_shed_rate: float = 0.05
    #: Signal aggregation window.
    window_s: float = 0.01
    #: Minimum simulated time between evaluations.
    evaluate_interval_s: float = 0.002
    #: Consecutive breaching evaluations before scaling out.
    breach_ticks: int = 2
    #: Consecutive idle evaluations before scaling in.
    idle_ticks: int = 8
    #: No action fires within this long of the previous action.
    cooldown_s: float = 0.02
    #: Servers added/removed per action.
    step: int = 1

    def __post_init__(self) -> None:
        for name in ("min_servers", "max_servers", "breach_ticks", "idle_ticks", "step"):
            value = getattr(self, name)
            if not is_count(value):
                raise PDCError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("target_p99_wait_s", "low_p99_wait_s", "max_shed_rate",
                     "window_s", "evaluate_interval_s", "cooldown_s"):
            value = getattr(self, name)
            if isinstance(value, bool) or not math.isfinite(value):
                raise PDCError(f"{name} must be a finite number, got {value!r}")
        if self.max_servers < self.min_servers:
            raise PDCError("max_servers must be >= min_servers")
        if self.low_p99_wait_s >= self.target_p99_wait_s:
            raise PDCError(
                "low_p99_wait_s must be below target_p99_wait_s "
                "(the hysteresis gap)"
            )
        if self.window_s <= 0.0 or self.evaluate_interval_s <= 0.0:
            raise PDCError("window_s and evaluate_interval_s must be positive")
        if self.max_shed_rate < 0.0 or self.cooldown_s < 0.0:
            raise PDCError("max_shed_rate and cooldown_s must be >= 0")


@dataclass(frozen=True)
class ScalingDecision:
    """One fired scaling action with the signals that justified it."""

    t_s: float
    action: str  # "scale_out" | "scale_in"
    amount: int
    reason: str
    p99_wait_s: float
    shed_rate: float
    n_servers_before: int
    n_servers_after: int

    def to_record(self) -> Dict[str, object]:
        return {
            "t_s": self.t_s,
            "action": self.action,
            "amount": self.amount,
            "reason": self.reason,
            # NaN is not valid JSON; encode "no samples" explicitly.
            "p99_wait_s": None if math.isnan(self.p99_wait_s) else self.p99_wait_s,
            "shed_rate": self.shed_rate,
            "n_servers_before": self.n_servers_before,
            "n_servers_after": self.n_servers_after,
        }


class Autoscaler:
    """Hysteresis controller from monitor series to cluster scaling.

    ``manager`` is a :class:`~repro.cluster.rebalance.ClusterManager`;
    ``monitor`` a :class:`~repro.obs.monitor.ServiceMonitor` whose
    recorder holds the ``pdc_service_*`` series.  Install on a
    :class:`~repro.service.frontend.QueryService` via
    ``ServiceConfig.autoscaler``; the drain loop calls :meth:`on_tick`.
    """

    def __init__(self, manager, monitor, config: Optional[AutoscalerConfig] = None):
        self.manager = manager
        self.monitor = monitor
        self.config = config or AutoscalerConfig()
        self.decisions: List[ScalingDecision] = []
        self._last_eval_s = -math.inf
        self._last_action_s = -math.inf
        self._breach_count = 0
        self._idle_count = 0

    # -------------------------------------------------------------- signals
    def signals(self, t_s: float) -> Tuple[float, float, int]:
        """(cross-tenant p99 queue wait, shed fraction, sample count) over
        the trailing window at ``t_s``.

        The p99 folds every tenant's queue-wait samples through the same
        mergeable-histogram estimator the per-series window stats use, so
        the autoscaler and the status table agree on identical data.  The
        shed fraction is sheds / submissions across tenants (0.0 when
        nothing was submitted).
        """
        recorder = self.monitor.recorder
        waits: List[float] = []
        sheds = 0
        submitted = 0
        for series in recorder.all_series():
            if series.name == "pdc_service_queue_wait_sim_seconds":
                waits.extend(
                    s.value for s in series.in_window(t_s, self.config.window_s)
                )
            elif series.name == "pdc_service_outcomes":
                outcome = series.labels.get("outcome")
                if outcome not in ("shed", "submitted"):
                    continue
                n = len(series.in_window(t_s, self.config.window_s))
                if outcome == "shed":
                    sheds += n
                else:
                    submitted += n
        if waits:
            (p99,) = _percentiles(np.asarray(waits, dtype=np.float64), (0.99,), 64)
        else:
            p99 = math.nan
        shed_rate = sheds / submitted if submitted else 0.0
        return p99, shed_rate, len(waits)

    # ------------------------------------------------------------------ tick
    def on_tick(self, t_s: float) -> Optional[ScalingDecision]:
        """Evaluate at most once per ``evaluate_interval_s``; fire a
        scaling action when hysteresis and cooldown allow."""
        cfg = self.config
        if t_s - self._last_eval_s < cfg.evaluate_interval_s:
            return None
        self._last_eval_s = t_s
        p99, shed_rate, n_samples = self.signals(t_s)

        breach = (
            not math.isnan(p99) and p99 > cfg.target_p99_wait_s
        ) or shed_rate > cfg.max_shed_rate
        idle = (math.isnan(p99) or p99 < cfg.low_p99_wait_s) and shed_rate == 0.0
        if breach:
            self._breach_count += 1
            self._idle_count = 0
        elif idle:
            self._idle_count += 1
            self._breach_count = 0
        else:
            self._breach_count = 0
            self._idle_count = 0

        if t_s - self._last_action_s < cfg.cooldown_s:
            return None
        n_live = len(self.manager.system.membership.ids_in(LIVE))
        decision: Optional[ScalingDecision] = None
        if self._breach_count >= cfg.breach_ticks and n_live < cfg.max_servers:
            amount = min(cfg.step, cfg.max_servers - n_live)
            reason = (
                f"p99={p99:.6f}s>{cfg.target_p99_wait_s}s"
                if not math.isnan(p99) and p99 > cfg.target_p99_wait_s
                else f"shed_rate={shed_rate:.4f}>{cfg.max_shed_rate}"
            )
            self.manager.scale_out(amount)
            decision = ScalingDecision(
                t_s=t_s,
                action="scale_out",
                amount=amount,
                reason=reason,
                p99_wait_s=p99,
                shed_rate=shed_rate,
                n_servers_before=n_live,
                n_servers_after=n_live + amount,
            )
        elif self._idle_count >= cfg.idle_ticks and n_live > cfg.min_servers:
            amount = min(cfg.step, n_live - cfg.min_servers)
            self.manager.scale_in(amount)
            decision = ScalingDecision(
                t_s=t_s,
                action="scale_in",
                amount=amount,
                reason=f"idle x{self._idle_count}",
                p99_wait_s=p99,
                shed_rate=shed_rate,
                n_servers_before=n_live,
                n_servers_after=n_live - amount,
            )
        if decision is not None:
            self._last_action_s = t_s
            self._breach_count = 0
            self._idle_count = 0
            self.decisions.append(decision)
            self.monitor.on_scale_decision(
                t_s=t_s,
                action=decision.action,
                amount=decision.amount,
                n_servers=decision.n_servers_after,
                reason=decision.reason,
            )
        return decision

    # ----------------------------------------------------------- inspection
    def to_records(self) -> List[Dict[str, object]]:
        return [d.to_record() for d in self.decisions]

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON decision stream."""
        payload = "\n".join(
            json.dumps(rec, sort_keys=True) for rec in self.to_records()
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
