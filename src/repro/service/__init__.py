"""repro.service — multi-tenant query-service frontend.

The serving layer between clients and the engine: tenants, admission
control (token buckets + bounded queues), two dispatch policies
(FIFO / weighted-fair with deadline awareness), queue-
deadline load shedding, and per-tenant SLO accounting — all on simulated
time.  See docs/service.md.
"""

from .admission import AdmissionDecision, TokenBucket
from .config import DEFAULT_TENANT, POLICY_NAMES, ServiceConfig, Tenant
from .frontend import QueryService, ServiceRequest, ServiceTicket, TenantStats
from .policies import (
    DispatchPolicy,
    FifoPolicy,
    WfqPolicy,
    make_policy,
)

__all__ = [
    "AdmissionDecision",
    "TokenBucket",
    "DEFAULT_TENANT",
    "POLICY_NAMES",
    "ServiceConfig",
    "Tenant",
    "QueryService",
    "ServiceRequest",
    "ServiceTicket",
    "TenantStats",
    "DispatchPolicy",
    "FifoPolicy",
    "WfqPolicy",
    "make_policy",
]
