"""Priority/timeout propagation through the paper-facing API layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PDCError
from repro.obs.metrics import MetricsRegistry
from repro.pdc.capi import PDCquery_set_priority, PDCquery_set_timeout
from repro.query import (
    AsyncQueryClient,
    PDCquery_and,
    PDCquery_create,
    PDCquery_execute_batch,
    PDCquery_get_nhits,
    QueryScheduler,
)
from repro.query.ast import Condition
from repro.types import PDCType, QueryOp

from tests.conftest import make_system


def fresh_deployment():
    rng = np.random.default_rng(12345)
    sysm = make_system(metrics=MetricsRegistry())
    sysm.create_object("energy", rng.gamma(2.0, 0.7, 1 << 14).astype(np.float32))
    sysm.create_object("x", (rng.random(1 << 14) * 300.0).astype(np.float32))
    return sysm


def make_query(sysm, value=2.0, name="energy"):
    obj_id = sysm.get_object(name).meta.object_id
    return PDCquery_create(sysm, obj_id, ">", "float", value)


class TestCapiSetters:
    def test_set_priority_and_timeout(self):
        sysm = fresh_deployment()
        q = make_query(sysm)
        PDCquery_set_priority(q, 7)
        PDCquery_set_timeout(q, 0.25)
        assert q.priority == 7
        assert q.timeout_s == 0.25

    def test_timeout_must_be_positive(self):
        sysm = fresh_deployment()
        q = make_query(sysm)
        with pytest.raises(PDCError):
            PDCquery_set_timeout(q, 0.0)
        with pytest.raises(PDCError):
            PDCquery_set_timeout(q, -1.0)

    def test_combined_queries_keep_max_priority_min_timeout(self):
        sysm = fresh_deployment()
        q1 = make_query(sysm, 2.0, "energy")
        q2 = make_query(sysm, 100.0, "x")
        PDCquery_set_priority(q1, 3)
        PDCquery_set_timeout(q1, 5.0)
        PDCquery_set_timeout(q2, 1.0)
        q = PDCquery_and(q1, q2)
        assert q.priority == 3
        assert q.timeout_s == 1.0

    def test_timeout_reaches_engine_deadline(self):
        sysm = fresh_deployment()
        q = make_query(sysm)
        PDCquery_set_timeout(q, 1e-9)
        PDCquery_get_nhits(q)
        assert q.last_result.timed_out
        assert not q.last_result.complete

    def test_execute_batch_forwards_priority_and_timeout(self):
        sysm = fresh_deployment()
        q1, q2 = make_query(sysm, 1.0), make_query(sysm, 2.0)
        PDCquery_set_priority(q2, 5)
        PDCquery_set_timeout(q1, 1e-9)
        sched = QueryScheduler(sysm, max_width=2, use_selection_cache=False)
        PDCquery_execute_batch(sysm, [q1, q2], scheduler=sched)
        specs = None  # specs reached the engine via the scheduler's window
        batch = sched.batches[-1]
        assert batch.width == 2
        assert q1.last_result.timed_out
        assert not q2.last_result.timed_out
        sched.close()
        del specs


class TestSchedulerPriorityWindows:
    def test_default_priorities_keep_submission_order(self):
        sysm = fresh_deployment()
        sched = QueryScheduler(sysm, max_width=8, use_selection_cache=False)
        values = [1.0, 2.0, 3.0]
        results = sched.run(
            [Condition("energy", QueryOp.GT, PDCType.FLOAT, v) for v in values]
        )
        e = sysm.get_object("energy").data
        assert [r.nhits for r in results] == [
            int((e > np.float32(v)).sum()) for v in values
        ]
        sched.close()


class TestAsyncClientPriority:
    def test_submit_forwards_priority_into_spec(self):
        sysm = fresh_deployment()
        client = AsyncQueryClient(sysm)
        try:
            fut = client.submit(
                Condition("energy", QueryOp.GT, PDCType.FLOAT, 2.0),
                priority=4,
                timeout_s=30.0,
            )
            res = fut.result(timeout=30)
            assert res.complete
        finally:
            client.shutdown()
