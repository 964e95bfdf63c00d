"""repro.service — multi-tenant query-service frontend.

The serving layer between clients and the engine: tenants, admission
control (token buckets + bounded queues), weighted-fair dispatch with
deadline awareness, queue-deadline load shedding, and per-tenant SLO
accounting — all on simulated time.  See docs/service.md.
"""

from .admission import AdmissionDecision, TokenBucket
from .config import DEFAULT_TENANT, ServiceConfig, Tenant
from .frontend import QueryService, ServiceRequest, ServiceTicket, TenantStats

__all__ = [
    "AdmissionDecision",
    "TokenBucket",
    "DEFAULT_TENANT",
    "ServiceConfig",
    "Tenant",
    "QueryService",
    "ServiceRequest",
    "ServiceTicket",
    "TenantStats",
]
