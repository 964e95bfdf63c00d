"""Cluster membership of the fixed PDC server fleet.

:mod:`repro.cluster.membership` is the deterministic membership registry
(crash/recover on simulated clocks, generation-numbered views, an event
stream).  :class:`~repro.pdc.system.PDCSystem` always owns one;
``fail_server`` / ``recover_server`` are its two transitions.  Routing
reads only its serving set: region ``rid`` is served by
``serving[rid % len(serving)]``.
"""

from .membership import (
    CRASHED,
    LIVE,
    MembershipEvent,
    MembershipRegistry,
    MembershipView,
)

__all__ = [
    "LIVE",
    "CRASHED",
    "MembershipEvent",
    "MembershipView",
    "MembershipRegistry",
]
