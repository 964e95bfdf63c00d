"""Unit tests for the dispatch policies' ordering semantics."""

from __future__ import annotations

import pytest

from repro.errors import PDCError
from repro.service import Tenant, make_policy
from repro.service.frontend import ServiceRequest


def req(seq, tenant, deadline_s=None):
    return ServiceRequest(
        seq=seq,
        tenant=tenant,
        spec=None,  # policies never look at the spec
        arrival_s=0.0,
        deadline_s=deadline_s,
    )


def dispatch_order(policy, requests):
    """Drain a request set the way the frontend does (min key first)."""
    pending = list(requests)
    for r in pending:
        policy.on_admit(r)
    order = []
    while pending:
        best = min(pending, key=policy.key)
        pending.remove(best)
        policy.on_dispatch(best)
        order.append(best.seq)
    return order


class TestFifo:
    def test_global_arrival_order(self):
        a, b = Tenant("a"), Tenant("b")
        rs = [req(0, a), req(1, b), req(2, a)]
        assert dispatch_order(make_policy("fifo"), rs) == [0, 1, 2]


class TestWfq:
    def test_finish_tags_proportional_to_weight(self):
        heavy, light = Tenant("h", weight=4.0), Tenant("l", weight=1.0)
        policy = make_policy("wfq")
        h = [req(i, heavy) for i in range(4)]
        li = req(4, light)
        for r in [*h, li]:
            policy.on_admit(r)
        # Four heavy back-to-back requests finish at 0.25, 0.5, ... while
        # the single light one finishes at 1.0.
        assert [r.finish_tag for r in h] == [0.25, 0.5, 0.75, 1.0]
        assert li.finish_tag == 1.0

    def test_interleaves_by_weight(self):
        heavy, light = Tenant("h", weight=3.0), Tenant("l", weight=1.0)
        rs = [req(i, heavy) for i in range(6)] + [req(6 + i, light) for i in range(2)]
        order = dispatch_order(make_policy("wfq"), rs)
        # Light's first dispatch must come after ~weight-share heavy ones,
        # not after all of them.
        assert order.index(6) <= 3
        assert order.index(7) <= 7

    def test_idle_tenant_banks_no_credit(self):
        a, b = Tenant("a"), Tenant("b")
        policy = make_policy("wfq")
        # Tenant a works alone for a while; virtual time advances.
        for i in range(5):
            r = req(i, a)
            policy.on_admit(r)
            policy.on_dispatch(r)
        late = req(5, b)
        policy.on_admit(late)
        # b's first tag starts at current vtime, not at 0: it cannot claim
        # "missed" slots from the period it had nothing queued.
        assert late.finish_tag >= policy.vtime

    def test_deadline_breaks_fair_share_ties(self):
        a, b = Tenant("a"), Tenant("b")
        policy = make_policy("wfq")
        r1 = req(0, a, deadline_s=9.0)
        r2 = req(1, b, deadline_s=1.0)
        policy.on_admit(r1)
        policy.on_admit(r2)
        assert r1.finish_tag == r2.finish_tag  # equal weights, same vtime
        assert policy.key(r2) < policy.key(r1)  # urgent deadline first

    def test_no_deadline_sorts_last_among_equal_tags(self):
        a, b = Tenant("a"), Tenant("b")
        policy = make_policy("wfq")
        r1 = req(0, a)
        r2 = req(1, b, deadline_s=5.0)
        policy.on_admit(r1)
        policy.on_admit(r2)
        assert policy.key(r2) < policy.key(r1)


def test_make_policy_unknown_name():
    with pytest.raises(PDCError):
        make_policy("srpt")


def test_make_policy_fresh_state():
    p1 = make_policy("wfq")
    r = req(0, Tenant("a"))
    p1.on_admit(r)
    p1.on_dispatch(r)
    assert make_policy("wfq").vtime == 0.0
