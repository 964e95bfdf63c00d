"""Cluster membership: generation-numbered views on simulated clocks.

The paper's deployment fixes the PDC server fleet at launch (§V: one
server per compute node).  Growing the reproduction toward an elastic
service needs the piece the paper leaves implicit: a **membership
registry** that knows, at every simulated instant, which servers exist,
which are serving, and which are on their way in or out.  The design
follows the classic datanode-registration shape (a metadata service
tracks members through explicit state transitions) recast onto simulated
time so every run replays bit-identically.  There is no failure
detector: ``fail_server`` and the fault plan decide crashes.

States and transitions::

    (new) --join--> JOINING --activate--> LIVE --drain--> DRAINING --leave--> GONE
                       |                   |  ^               |
                       +------crash------> |  |recover        +--crash--+
                                           v  |                         v
                                         CRASHED <----------------------+

* ``JOINING`` servers exist (their clocks run) but serve no regions
  until a rebalance commit activates them.
* ``LIVE`` servers serve their share of the regions.
* ``DRAINING`` servers keep serving while a rebalance migrates their
  share away; ``leave`` retires them to ``GONE``.
* ``CRASHED`` is the failure state — :meth:`PDCSystem.fail_server` is
  just the ``crash`` transition, so failover, cache invalidation, and
  monitor series all observe one membership code path.
* ``GONE`` servers are fully decommissioned: excluded from routing,
  from ``n_servers``, and from every charge site.

Routing reads the serving set (``LIVE`` ∪ ``DRAINING``, ascending id) and
nothing else: region ``rid`` is served by ``serving[rid % len(serving)]``.

Every transition increments the **generation** and appends a
:class:`MembershipEvent`; the event stream is deterministic and
fingerprintable (same seed + same calls → byte-identical stream),
mirroring the SLO alert stream's replayability contract.  A system that
never sees a membership call has an empty stream and behaves exactly as
a fixed fleet.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

from ..errors import PDCError

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
]

JOINING = "joining"
LIVE = "live"
DRAINING = "draining"
CRASHED = "crashed"
GONE = "gone"

#: Every membership state, in lifecycle order.
STATES = (JOINING, LIVE, DRAINING, CRASHED, GONE)

#: States in which a server owns regions and receives query work.
SERVING_STATES = (LIVE, DRAINING)

#: Legal transitions: event kind → (required current states, new state).
_TRANSITIONS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "join": ((), JOINING),  # special-cased: server must be unknown
    "activate": ((JOINING,), LIVE),
    "drain": ((LIVE,), DRAINING),
    "leave": ((JOINING, DRAINING), GONE),
    "crash": ((JOINING, LIVE, DRAINING), CRASHED),
    "recover": ((CRASHED,), LIVE),
}


@dataclass(frozen=True)
class MembershipEvent:
    """One membership transition at a simulated instant."""

    t_s: float
    generation: int
    server_id: int
    #: Transition kind ("join", "activate", "drain", "leave", "crash",
    #: "recover").
    kind: str
    #: State the server is in after this event.
    state: str

    def to_record(self) -> Dict[str, object]:
        """Canonical JSON-able form — the fingerprint's unit."""
        return {
            "t_s": self.t_s,
            "generation": self.generation,
            "server_id": self.server_id,
            "kind": self.kind,
            "state": self.state,
        }


@dataclass(frozen=True)
class MembershipView:
    """An immutable snapshot of the cluster at one generation."""

    generation: int
    #: ``(server_id, state)`` pairs, ascending by id, GONE included (a
    #: view is a full history-aware snapshot, not just the live set).
    members: Tuple[Tuple[int, str], ...]


class MembershipRegistry:
    """Deterministic membership state machine.

    The initial fleet registers at generation 0 without events (a system
    that never changes membership has an empty, zero-cost event stream).
    """

    def __init__(self, server_ids: Iterable[int]) -> None:
        self._states: Dict[int, str] = {int(s): LIVE for s in server_ids}
        if not self._states:
            raise PDCError("membership needs at least one initial server")
        self.generation = 0
        self.events: List[MembershipEvent] = []
        self._subscribers: List[Callable[[MembershipEvent], None]] = []

    # -------------------------------------------------------------- queries
    def state(self, server_id: int) -> str:
        try:
            return self._states[server_id]
        except KeyError:
            raise PDCError(f"no member {server_id}") from None

    def knows(self, server_id: int) -> bool:
        return server_id in self._states

    def ids_in(self, *states: str) -> List[int]:
        return sorted(s for s, st in self._states.items() if st in states)

    @property
    def serving_ids(self) -> List[int]:
        return self.ids_in(*SERVING_STATES)

    def view(self) -> MembershipView:
        return MembershipView(
            generation=self.generation,
            members=tuple(sorted(self._states.items())),
        )

    # ---------------------------------------------------------- transitions
    def subscribe(self, callback: Callable[[MembershipEvent], None]) -> None:
        """Receive every subsequent membership event, synchronously, in
        stream order (what the owning system and the rebalancer attach)."""
        if callback not in self._subscribers:
            self._subscribers.append(callback)

    def _transition(self, t_s: float, server_id: int, kind: str) -> MembershipEvent:
        allowed, new_state = _TRANSITIONS[kind]
        if kind == "join":
            if server_id in self._states:
                raise PDCError(
                    f"server {server_id} already a member "
                    f"({self._states[server_id]})"
                )
        else:
            current = self.state(server_id)
            if current not in allowed:
                raise PDCError(
                    f"cannot {kind} server {server_id}: state is {current!r}, "
                    f"needs one of {allowed}"
                )
        if self.events and t_s < self.events[-1].t_s:
            raise PDCError(
                f"membership event at t={t_s} precedes latest "
                f"t={self.events[-1].t_s} (simulated time only moves forward)"
            )
        self._states[server_id] = new_state
        self.generation += 1
        event = MembershipEvent(
            t_s=float(t_s),
            generation=self.generation,
            server_id=server_id,
            kind=kind,
            state=new_state,
        )
        self.events.append(event)
        for callback in list(self._subscribers):
            callback(event)
        return event

    def join(self, t_s: float, server_id: int) -> MembershipEvent:
        """A new server registers (state JOINING: exists, serves nothing)."""
        return self._transition(t_s, server_id, "join")

    def activate(self, t_s: float, server_id: int) -> MembershipEvent:
        """A joining server starts serving (rebalance commit)."""
        return self._transition(t_s, server_id, "activate")

    def drain(self, t_s: float, server_id: int) -> MembershipEvent:
        """Begin decommissioning: keep serving while regions migrate away."""
        return self._transition(t_s, server_id, "drain")

    def leave(self, t_s: float, server_id: int) -> MembershipEvent:
        """Retire a drained (or never-activated) server."""
        return self._transition(t_s, server_id, "leave")

    def crash(self, t_s: float, server_id: int) -> MembershipEvent:
        """Failure transition (what ``fail_server`` routes through)."""
        return self._transition(t_s, server_id, "crash")

    def recover(self, t_s: float, server_id: int) -> MembershipEvent:
        """A crashed server rejoins service."""
        return self._transition(t_s, server_id, "recover")

    # ----------------------------------------------------------- inspection
    def to_records(self) -> List[Dict[str, object]]:
        return [e.to_record() for e in self.events]

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON event stream — two runs with
        identical seeds/configs must produce identical fingerprints."""
        payload = "\n".join(
            json.dumps(rec, sort_keys=True) for rec in self.to_records()
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
