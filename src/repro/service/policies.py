"""Dispatch policies: who goes in the next batch window.

The frontend keeps one FIFO queue per tenant (a tenant's own requests
never reorder) and asks the policy to rank the *queue heads* each time it
fills a batch window.  A policy is three hooks:

* :meth:`DispatchPolicy.on_admit` — called once when a request is
  admitted, to stamp any bookkeeping (WFQ finish tags);
* :meth:`DispatchPolicy.key` — sort key; lowest key dispatches first;
* :meth:`DispatchPolicy.on_dispatch` — called as a request enters a
  window (WFQ advances virtual time).

Two policies ship:

``fifo``
    Global arrival order — key ``(seq,)``.  The passthrough baseline.

``wfq``
    Weighted-fair queueing by virtual finish time (start-time fairness
    in the style of SFQ).  At admission a request is stamped with
    ``finish = max(vtime, tenant_last_finish) + 1/weight``; dispatch
    picks the smallest ``(finish_tag, deadline, seq)`` — so among
    fair-share-equivalent candidates the most urgent queue deadline goes
    first — and advances ``vtime`` to the dispatched tag.  A tenant with
    weight *w* receives a ~``w``-proportional share of dispatch slots
    whenever it has queued work, and an idle tenant accumulates no
    credit (its next start is clamped up to the current virtual time).

All state is plain arithmetic on admission-sequence numbers and stamped
tags: no randomness, no wall clock — identical request sequences order
identically on every run.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Tuple

from ..errors import PDCError
from .config import POLICY_NAMES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (frontend imports us)
    from .frontend import ServiceRequest

__all__ = [
    "DispatchPolicy",
    "FifoPolicy",
    "WfqPolicy",
    "make_policy",
]


class DispatchPolicy:
    """Base policy: FIFO by admission sequence."""

    name = "fifo"

    def on_admit(self, req: "ServiceRequest") -> None:
        """Stamp policy bookkeeping onto a newly admitted request."""

    def key(self, req: "ServiceRequest") -> Tuple:
        return (req.seq,)

    def on_dispatch(self, req: "ServiceRequest") -> None:
        """Account for ``req`` entering a dispatch window."""


class FifoPolicy(DispatchPolicy):
    """Global arrival order across all tenants."""


class WfqPolicy(DispatchPolicy):
    """Weighted-fair queueing via virtual finish times, deadline-aware."""

    name = "wfq"

    def __init__(self) -> None:
        self.vtime = 0.0
        self._last_finish: Dict[str, float] = {}

    def on_admit(self, req: "ServiceRequest") -> None:
        start = max(self.vtime, self._last_finish.get(req.tenant.name, 0.0))
        finish = start + 1.0 / req.tenant.weight
        self._last_finish[req.tenant.name] = finish
        req.finish_tag = finish

    def key(self, req: "ServiceRequest") -> Tuple:
        deadline = req.deadline_s if req.deadline_s is not None else math.inf
        return (req.finish_tag, deadline, req.seq)

    def on_dispatch(self, req: "ServiceRequest") -> None:
        # Virtual time tracks the frontier of dispatched service so a
        # tenant that went idle cannot bank credit against the future.
        self.vtime = max(self.vtime, req.finish_tag)


def make_policy(name: str) -> DispatchPolicy:
    """Instantiate the named policy (fresh state each call)."""
    if name == "fifo":
        return FifoPolicy()
    if name == "wfq":
        return WfqPolicy()
    raise PDCError(f"unknown dispatch policy {name!r}; valid: {POLICY_NAMES}")
