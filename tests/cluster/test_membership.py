"""Membership registry: transitions, views, and determinism."""

import pytest

from repro.cluster.membership import CRASHED, LIVE, MembershipRegistry
from repro.errors import PDCError


class TestInitialFleet:
    def test_initial_members_live_at_generation_zero(self):
        reg = MembershipRegistry(range(3))
        assert reg.generation == 0
        assert reg.events == []
        assert reg.ids_in(LIVE) == [0, 1, 2]
        assert reg.ids_in(CRASHED) == []

    def test_empty_fleet_rejected(self):
        with pytest.raises(PDCError):
            MembershipRegistry([])


class TestTransitions:
    def test_crash_and_recover(self):
        reg = MembershipRegistry([0, 1])
        reg.crash(1.0, 1)
        assert reg.state(1) == CRASHED
        assert reg.ids_in(LIVE) == [0]
        reg.recover(2.0, 1)
        assert reg.state(1) == LIVE
        assert reg.ids_in(LIVE) == [0, 1]

    def test_unknown_member_rejected(self):
        reg = MembershipRegistry([0])
        with pytest.raises(PDCError, match="no member 7"):
            reg.state(7)
        with pytest.raises(PDCError, match="no member 7"):
            reg.crash(1.0, 7)

    def test_invalid_transitions_rejected(self):
        reg = MembershipRegistry([0, 1])
        # LIVE cannot recover; CRASHED cannot crash again.
        with pytest.raises(PDCError, match="cannot recover server 0"):
            reg.recover(1.0, 0)
        reg.crash(1.0, 1)
        with pytest.raises(PDCError, match="cannot crash server 1"):
            reg.crash(2.0, 1)
        # A refused transition leaves no trace.
        assert reg.generation == 1
        assert [e.kind for e in reg.events] == ["crash"]

    def test_event_time_must_be_monotone(self):
        reg = MembershipRegistry([0, 1])
        reg.crash(5.0, 1)
        with pytest.raises(PDCError, match="precedes latest"):
            reg.recover(4.0, 1)
        # Equal instants are fine.
        reg.recover(5.0, 1)

    def test_generation_increments_per_event(self):
        reg = MembershipRegistry([0, 1])
        events = [reg.crash(1.0, 1), reg.recover(2.0, 1), reg.crash(3.0, 0)]
        assert [e.generation for e in events] == [1, 2, 3]
        assert reg.view().generation == 3


class TestViews:
    def test_view_snapshots_all_members_including_crashed(self):
        reg = MembershipRegistry([0, 1, 2])
        reg.crash(1.0, 1)
        assert reg.view().members == ((0, LIVE), (1, CRASHED), (2, LIVE))

    def test_view_is_immutable_snapshot(self):
        reg = MembershipRegistry([0, 1])
        before = reg.view()
        reg.crash(1.0, 1)
        assert before.members == ((0, LIVE), (1, LIVE))
        assert reg.view().members == ((0, LIVE), (1, CRASHED))


class TestEventStream:
    def _scripted(self):
        reg = MembershipRegistry([0, 1, 2])
        reg.crash(1.0, 2)
        reg.crash(2.0, 1)
        reg.recover(3.0, 1)
        return reg

    def test_same_script_same_events(self):
        assert self._scripted().events == self._scripted().events

    def test_extra_event_changes_the_stream(self):
        a, b = self._scripted(), self._scripted()
        b.recover(4.0, 2)
        assert a.events != b.events
        assert a.events == b.events[:-1]

    def test_events_carry_their_fields(self):
        first = self._scripted().events[0]
        assert (first.t_s, first.generation, first.server_id, first.kind,
                first.state) == (1.0, 1, 2, "crash", CRASHED)
