"""Elastic cluster membership, rebalancing, and autoscaling.

Three layers, each usable alone:

* :mod:`repro.cluster.membership` — the deterministic membership
  registry (join/activate/drain/leave/crash/recover on simulated
  clocks, generation-numbered views, fingerprintable event stream).
  :class:`~repro.pdc.system.PDCSystem` always owns one; ``fail_server``
  is just its ``crash`` transition.  Routing reads only its serving set:
  region ``rid`` is served by ``serving[rid % len(serving)]``.
* :mod:`repro.cluster.rebalance` — copy-then-commit migrations from one
  serving set to the next, with transfer time charged in simulated
  seconds, driven by :class:`~repro.cluster.rebalance.ClusterManager`.
* :mod:`repro.cluster.autoscale` — the hysteresis controller that turns
  the service monitor's ``pdc_service_*`` series into replayable
  scale-out/scale-in decisions.

``membership`` and ``rebalance`` are imported eagerly (the PDC system
depends on ``membership``); ``autoscale`` loads lazily because it pulls
in the observability and service stacks.
"""

from .membership import (
    CRASHED,
    DRAINING,
    GONE,
    JOINING,
    LIVE,
    SERVING_STATES,
    STATES,
    MembershipEvent,
    MembershipRegistry,
    MembershipView,
)
from .rebalance import ClusterManager, Migration, RegionMove

__all__ = [
    "JOINING",
    "LIVE",
    "DRAINING",
    "CRASHED",
    "GONE",
    "STATES",
    "SERVING_STATES",
    "MembershipEvent",
    "MembershipView",
    "MembershipRegistry",
    "RegionMove",
    "Migration",
    "ClusterManager",
    "Autoscaler",
    "AutoscalerConfig",
    "ScalingDecision",
]

_LAZY = {
    "Autoscaler": ("autoscale", "Autoscaler"),
    "AutoscalerConfig": ("autoscale", "AutoscalerConfig"),
    "ScalingDecision": ("autoscale", "ScalingDecision"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, attr)
    globals()[name] = value
    return value
