"""Membership registry: transitions, views, and determinism."""

import pytest

from repro.cluster.membership import (
    CRASHED,
    DRAINING,
    GONE,
    JOINING,
    LIVE,
    MembershipRegistry,
)
from repro.errors import PDCError


class TestInitialFleet:
    def test_initial_members_live_at_generation_zero(self):
        reg = MembershipRegistry(range(3))
        assert reg.generation == 0
        assert reg.events == []
        assert reg.ids_in(LIVE) == [0, 1, 2]
        assert reg.serving_ids == [0, 1, 2]

    def test_empty_fleet_rejected(self):
        with pytest.raises(PDCError):
            MembershipRegistry([])


class TestTransitions:
    def test_full_lifecycle(self):
        reg = MembershipRegistry([0, 1])
        reg.join(1.0, 2)
        assert reg.state(2) == JOINING
        reg.activate(2.0, 2)
        assert reg.state(2) == LIVE
        reg.drain(3.0, 2)
        assert reg.state(2) == DRAINING
        reg.leave(4.0, 2)
        assert reg.state(2) == GONE
        assert reg.generation == 4
        assert [e.kind for e in reg.events] == [
            "join", "activate", "drain", "leave",
        ]
        # A draining server keeps serving until it leaves.
        assert 2 not in reg.serving_ids

    def test_crash_and_recover(self):
        reg = MembershipRegistry([0, 1])
        reg.crash(1.0, 1)
        assert reg.state(1) == CRASHED
        assert reg.serving_ids == [0]
        reg.recover(2.0, 1)
        assert reg.state(1) == LIVE
        assert reg.serving_ids == [0, 1]

    def test_joining_server_can_crash_or_leave(self):
        reg = MembershipRegistry([0])
        reg.join(1.0, 1)
        reg.crash(2.0, 1)
        assert reg.state(1) == CRASHED
        reg2 = MembershipRegistry([0])
        reg2.join(1.0, 1)
        reg2.leave(2.0, 1)
        assert reg2.state(1) == GONE

    def test_unknown_member_rejected(self):
        reg = MembershipRegistry([0])
        with pytest.raises(PDCError, match="no member 7"):
            reg.state(7)
        with pytest.raises(PDCError, match="no member 7"):
            reg.drain(1.0, 7)

    def test_rejoin_rejected(self):
        reg = MembershipRegistry([0])
        with pytest.raises(PDCError, match="already a member"):
            reg.join(1.0, 0)

    def test_invalid_transitions_rejected(self):
        reg = MembershipRegistry([0, 1])
        # LIVE cannot activate, leave, or recover.
        with pytest.raises(PDCError, match="cannot activate server 0"):
            reg.activate(1.0, 0)
        with pytest.raises(PDCError, match="cannot leave server 0"):
            reg.leave(1.0, 0)
        with pytest.raises(PDCError, match="cannot recover server 0"):
            reg.recover(1.0, 0)
        # GONE is terminal.
        reg.drain(1.0, 1)
        reg.leave(2.0, 1)
        for call in (reg.activate, reg.drain, reg.leave, reg.crash, reg.recover):
            with pytest.raises(PDCError):
                call(3.0, 1)

    def test_event_time_must_be_monotone(self):
        reg = MembershipRegistry([0, 1])
        reg.crash(5.0, 1)
        with pytest.raises(PDCError, match="precedes latest"):
            reg.recover(4.0, 1)
        # Equal instants are fine (commit barriers batch transitions).
        reg.recover(5.0, 1)

    def test_generation_increments_per_event(self):
        reg = MembershipRegistry([0, 1])
        events = [reg.crash(1.0, 1), reg.recover(2.0, 1), reg.drain(3.0, 1)]
        assert [e.generation for e in events] == [1, 2, 3]
        assert reg.view().generation == 3


class TestViews:
    def test_view_snapshots_all_members_including_gone(self):
        reg = MembershipRegistry([0, 1])
        reg.join(1.0, 2)
        reg.drain(2.0, 1)
        reg.leave(3.0, 1)
        view = reg.view()
        assert view.members == ((0, LIVE), (1, GONE), (2, JOINING))

    def test_view_is_immutable_snapshot(self):
        reg = MembershipRegistry([0, 1])
        before = reg.view()
        reg.crash(1.0, 1)
        assert before.members == ((0, LIVE), (1, LIVE))
        assert reg.view().members == ((0, LIVE), (1, CRASHED))


class TestSubscribers:
    def test_subscribers_see_events_in_order(self):
        reg = MembershipRegistry([0, 1])
        seen = []
        reg.subscribe(seen.append)
        reg.crash(1.0, 1)
        reg.recover(2.0, 1)
        assert [(e.kind, e.server_id) for e in seen] == [
            ("crash", 1), ("recover", 1),
        ]


class TestFingerprint:
    def _scripted(self):
        reg = MembershipRegistry([0, 1])
        reg.join(1.0, 2)
        reg.activate(1.5, 2)
        reg.crash(2.0, 1)
        reg.recover(3.0, 1)
        return reg

    def test_same_script_same_fingerprint(self):
        assert self._scripted().fingerprint() == self._scripted().fingerprint()

    def test_extra_event_changes_fingerprint(self):
        a, b = self._scripted(), self._scripted()
        b.drain(4.0, 2)
        assert a.fingerprint() != b.fingerprint()

    def test_records_round_trip_the_event_fields(self):
        reg = self._scripted()
        rec = reg.to_records()[0]
        assert rec == {
            "t_s": 1.0,
            "generation": 1,
            "server_id": 2,
            "kind": "join",
            "state": JOINING,
        }
