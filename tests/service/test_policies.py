"""Weighted-fair dispatch: the finish tags QueryService stamps at admission
and the order its windows take queue heads in."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PDCError
from repro.obs.metrics import MetricsRegistry
from repro.query.ast import Condition
from repro.service import QueryService, ServiceConfig, Tenant
from repro.types import PDCType, QueryOp

from tests.conftest import make_system


def service(*tenants):
    """A one-object deployment behind a service of ``tenants`` that
    dispatches one request per window, so the drain order is the rank
    order."""
    sysm = make_system(metrics=MetricsRegistry())
    sysm.create_object("energy", np.random.default_rng(1).random(1 << 12).astype(np.float32))
    return QueryService(sysm, ServiceConfig(tenants=tenants, batch_window=1))


def submit(svc, tenant):
    return svc.submit(tenant, Condition("energy", QueryOp.GT, PDCType.FLOAT, 0.5))


def dispatch_order(svc):
    order = [r.seq for r in svc.drain()]
    svc.close()
    return order


class TestWfq:
    def test_finish_tags_proportional_to_weight(self):
        svc = service(Tenant("h", weight=4.0), Tenant("l", weight=1.0))
        h = [submit(svc, "h") for _ in range(4)]
        li = submit(svc, "l")
        # Four heavy back-to-back requests finish at 0.25, 0.5, ... while
        # the single light one finishes at 1.0.
        assert [r.finish_tag for r in h] == [0.25, 0.5, 0.75, 1.0]
        assert li.finish_tag == 1.0
        svc.close()

    def test_interleaves_by_weight(self):
        svc = service(Tenant("h", weight=3.0), Tenant("l", weight=1.0))
        for _ in range(6):
            submit(svc, "h")
        for _ in range(2):
            submit(svc, "l")
        order = dispatch_order(svc)
        # Light's first dispatch must come after ~weight-share heavy ones,
        # not after all of them.
        assert order.index(6) <= 3
        assert order.index(7) <= 7

    def test_idle_tenant_banks_no_credit(self):
        svc = service(Tenant("a"), Tenant("b"))
        # Tenant a works alone for a while; virtual time advances to 5.
        for _ in range(5):
            submit(svc, "a")
        svc.drain()
        late = submit(svc, "b")
        # b's first tag starts at the current virtual time, not at 0: it
        # cannot claim "missed" slots from the period it had nothing queued.
        assert late.finish_tag == 6.0
        svc.close()

    def test_deadline_breaks_fair_share_ties(self):
        svc = service(Tenant("a", queue_deadline_s=9.0), Tenant("b", queue_deadline_s=1.0))
        r1, r2 = submit(svc, "a"), submit(svc, "b")
        assert r1.finish_tag == r2.finish_tag  # equal weights, same vtime
        assert dispatch_order(svc) == [r2.seq, r1.seq]  # urgent deadline first

    def test_no_deadline_sorts_last_among_equal_tags(self):
        svc = service(Tenant("a"), Tenant("b", queue_deadline_s=5.0))
        r1, r2 = submit(svc, "a"), submit(svc, "b")
        assert dispatch_order(svc) == [r2.seq, r1.seq]


def test_unknown_policy_refused():
    with pytest.raises(PDCError, match="wfq"):
        ServiceConfig(policy="fifo")
