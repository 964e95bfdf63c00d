"""Tenants and service configuration for the query-service frontend.

The paper presents PDC-Query as a *service*: many analysis clients share
one PDC deployment.  Once a query engine is shared, who may run what, and
when, matters as much as raw scan speed (Nieto-Santisteban et al.,
*Entering the Parallel Zone*, make the same observation for large-scale
astronomy query services).  A :class:`ServiceConfig` names the
**tenants** of one deployment and the knobs that govern each:

* ``weight`` — the tenant's fair share under weighted-fair dispatch;
* ``rate_limit_qps`` / ``burst`` — a token bucket on *simulated* time
  that bounds the tenant's sustained admission rate;
* ``queue_cap`` — bound on queued-but-undispatched requests (overflow is
  rejected, with an explicit decision, never silently dropped);
* ``queue_deadline_s`` — maximum simulated queue wait before a request
  is shed instead of dispatched;
* ``default_timeout_s`` — execution budget forwarded into the engine's
  per-query simulated deadline when a request does not carry its own.

Every knob defaults to "off", and :meth:`ServiceConfig.is_passthrough`
identifies the configurations (one tenant, no limits) that are
guaranteed bit-identical to driving :class:`~repro.query.scheduler.QueryScheduler`
directly — see docs/service.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import PDCError
from ..types import is_count

__all__ = ["Tenant", "ServiceConfig", "DEFAULT_TENANT"]


@dataclass(frozen=True)
class Tenant:
    """One client population sharing the deployment."""

    name: str
    #: Fair share under weighted-fair dispatch.
    weight: float = 1.0
    #: Sustained admission rate in queries per *simulated* second
    #: (token-bucket refill); None disables rate limiting.
    rate_limit_qps: Optional[float] = None
    #: Token-bucket capacity (maximum burst admitted back to back).
    burst: float = 1.0
    #: Maximum queued (admitted, undispatched) requests; None = unbounded.
    queue_cap: Optional[int] = None
    #: Maximum simulated queue wait before the request is shed.
    queue_deadline_s: Optional[float] = None
    #: Default execution budget (simulated seconds) for this tenant's
    #: queries; per-request timeouts override it.
    default_timeout_s: Optional[float] = None
    #: Workload class: ``"query"`` tenants submit queries, ``"write"``
    #: tenants submit ingest writes (:meth:`QueryService.submit_write`).
    #: Both classes compete under the same admission control and
    #: weighted-fair dispatch, so the weights arbitrate reads against ingest.
    kind: str = "query"

    def __post_init__(self) -> None:
        if not self.name:
            raise PDCError("tenant needs a non-empty name")
        if self.kind not in ("query", "write"):
            raise PDCError(
                f"tenant {self.name!r}: kind must be 'query' or 'write'"
            )
        for fname in (
            "weight", "rate_limit_qps", "burst", "queue_deadline_s", "default_timeout_s",
        ):
            v = getattr(self, fname)
            if v is not None and not math.isfinite(v):
                raise PDCError(f"tenant {self.name!r}: {fname}={v!r} must be finite")
        if self.weight <= 0.0:
            raise PDCError(f"tenant {self.name!r}: weight must be positive")
        if self.rate_limit_qps is not None and self.rate_limit_qps <= 0.0:
            raise PDCError(
                f"tenant {self.name!r}: rate_limit_qps must be positive (or None)"
            )
        if self.burst < 1.0:
            raise PDCError(f"tenant {self.name!r}: burst must be >= 1")
        if self.queue_cap is not None and not is_count(self.queue_cap):
            raise PDCError(
                f"tenant {self.name!r}: queue_cap must be an integer >= 1 (or None)"
            )
        for fname in ("queue_deadline_s", "default_timeout_s"):
            v = getattr(self, fname)
            if v is not None and v <= 0.0:
                raise PDCError(
                    f"tenant {self.name!r}: {fname} must be positive (or None)"
                )


#: The implicit tenant of an unconfigured service: no limits at all.
DEFAULT_TENANT = Tenant("default")


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of one :class:`~repro.service.frontend.QueryService`."""

    tenants: Tuple[Tenant, ...] = (DEFAULT_TENANT,)
    #: Dispatch rule; weighted-fair queueing (``"wfq"``) is the only one.
    policy: str = "wfq"
    #: Maximum queries per dispatched batch window.
    batch_window: int = 8
    #: Give the underlying scheduler a semantic selection cache.  Off by
    #: default: a *service* serves many tenants, and whether answers may
    #: be shared across them is a policy decision the caller makes
    #: explicitly.
    use_selection_cache: bool = False
    #: Ingest configuration for write tenants
    #: (:class:`repro.ingest.IngestConfig`); None uses that class's
    #: defaults.  Kept untyped here to avoid importing the ingest stack
    #: for query-only services.
    ingest: Optional[object] = None

    def __post_init__(self) -> None:
        if not self.tenants:
            raise PDCError("service needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise PDCError(f"duplicate tenant names: {sorted(names)}")
        if self.policy != "wfq":
            raise PDCError(f"unknown dispatch policy {self.policy!r}; valid: 'wfq'")
        if not is_count(self.batch_window):
            raise PDCError(
                f"batch_window must be an integer >= 1, not {self.batch_window!r}"
            )

    def tenant(self, name: str) -> Tenant:
        for t in self.tenants:
            if t.name == name:
                return t
        raise PDCError(
            f"unknown tenant {name!r}; configured: "
            f"{sorted(t.name for t in self.tenants)}"
        )

    def is_passthrough(self) -> bool:
        """True when this configuration is covered by the bit-identity
        guarantee: a single query tenant and every admission / deadline
        knob off — the service then adds zero simulated cost and produces
        exactly what :meth:`QueryScheduler.run` would.  A write tenant's
        writes are ingest epochs that charge the clocks, so it never is."""
        if len(self.tenants) != 1:
            return False
        t = self.tenants[0]
        return (
            t.kind == "query"
            and t.rate_limit_qps is None
            and t.queue_cap is None
            and t.queue_deadline_s is None
            and t.default_timeout_s is None
        )
