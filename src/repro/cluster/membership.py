"""Cluster membership: generation-numbered views on simulated clocks.

The paper's deployment fixes the PDC server fleet at launch (§V: one
server per compute node).  The fleet here is fixed too; membership is
the registry that knows, at every simulated instant, which of those
servers are serving and which have crashed.  There is no failure
detector: ``fail_server`` and the fault plan decide crashes.

States and transitions::

    LIVE --crash--> CRASHED --recover--> LIVE

* ``LIVE`` servers serve their share of the regions.
* ``CRASHED`` is the failure state — :meth:`PDCSystem.fail_server` is
  just the ``crash`` transition, so failover, cache invalidation, and
  monitor series all observe one membership code path.

Routing reads the serving set (``LIVE``, ascending id) and nothing else:
region ``rid`` is served by ``serving[rid % len(serving)]``, so a
recovered server takes its share back by the same rule.

Every transition increments the **generation** and appends a
:class:`MembershipEvent`; the event stream is deterministic (same seed +
same calls → equal streams).  A system that never sees a membership call
has an empty stream and behaves exactly as a fixed fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..errors import PDCError

__all__ = [
    "LIVE",
    "CRASHED",
    "MembershipEvent",
    "MembershipView",
    "MembershipRegistry",
]

LIVE = "live"
CRASHED = "crashed"

#: Legal transitions: event kind → (required current state, new state).
_TRANSITIONS: Dict[str, Tuple[str, str]] = {
    "crash": (LIVE, CRASHED),
    "recover": (CRASHED, LIVE),
}


@dataclass(frozen=True)
class MembershipEvent:
    """One membership transition at a simulated instant."""

    t_s: float
    generation: int
    server_id: int
    #: Transition kind ("crash" or "recover").
    kind: str
    #: State the server is in after this event.
    state: str


@dataclass(frozen=True)
class MembershipView:
    """An immutable snapshot of the cluster at one generation."""

    generation: int
    #: ``(server_id, state)`` pairs, ascending by id, crashed included.
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

    def view(self) -> MembershipView:
        return MembershipView(
            generation=self.generation,
            members=tuple(sorted(self._states.items())),
        )

    # ---------------------------------------------------------- transitions
    def _transition(self, t_s: float, server_id: int, kind: str) -> MembershipEvent:
        required, new_state = _TRANSITIONS[kind]
        current = self.state(server_id)
        if current != required:
            raise PDCError(
                f"cannot {kind} server {server_id}: state is {current!r}, "
                f"needs {required!r}"
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
        return event

    def crash(self, t_s: float, server_id: int) -> MembershipEvent:
        """Failure transition (what ``fail_server`` routes through)."""
        return self._transition(t_s, server_id, "crash")

    def recover(self, t_s: float, server_id: int) -> MembershipEvent:
        """A crashed server rejoins service."""
        return self._transition(t_s, server_id, "recover")
