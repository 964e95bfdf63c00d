"""A per-query time budget is ``None`` or a finite number of simulated
seconds above zero, under one rule (``repro.types.check_timeout``) at every
door: ``QuerySpec``, ``QueryEngine.execute``, ``QueryService.submit`` and
``PDCquery_set_timeout``.  Anything else is a ``PDCError`` before the query
runs — never a query with no deadline, nor an empty answer flagged
``timed_out``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PDCError
from repro.pdc.capi import PDCquery_set_timeout
from repro.query import (
    PDCquery_and,
    PDCquery_create,
    PDCquery_execute_batch,
    PDCquery_get_nhits,
    QueryScheduler,
)
from repro.query.ast import Condition
from repro.query.executor import QueryEngine, QuerySpec
from repro.service import QueryService, ServiceConfig
from repro.types import PDCType, QueryOp, check_timeout

from tests.conftest import make_system

BAD = [float("nan"), float("inf"), float("-inf"), -1.0, 0.0, 0, -0.0, True, "1.0", 1e400]
GOOD = [1e-9, 0.25, 3, np.float32(0.5), np.int64(2)]
NODE = Condition("energy", QueryOp.GT, PDCType.FLOAT, 2.0)


@pytest.fixture(scope="module")
def system():
    sysm = make_system()
    rng = np.random.default_rng(5)
    sysm.create_object("energy", rng.gamma(2.0, 0.7, 1 << 12).astype(np.float32))
    return sysm


def clocks(sysm):
    return [c.now for c in sysm.all_clocks()]


@pytest.mark.parametrize("value", BAD, ids=repr)
class TestRefused:
    def test_query_spec(self, value):
        with pytest.raises(PDCError, match="timeout_s"):
            QuerySpec(NODE, timeout_s=value)

    def test_execute(self, system, value):
        before = clocks(system)
        with pytest.raises(PDCError, match="timeout_s"):
            QueryEngine(system).execute(NODE, timeout_s=value)
        assert clocks(system) == before

    def test_service_submit(self, system, value):
        service = QueryService(system, ServiceConfig())
        try:
            with pytest.raises(PDCError, match="timeout_s"):
                service.submit("default", NODE, timeout_s=value)
            with pytest.raises(PDCError, match="timeout_s"):
                service.submit("default", QuerySpec(NODE), timeout_s=value)
            assert service.drain() == []
        finally:
            service.close()

    def test_capi(self, system, value):
        query = PDCquery_create(system, system.get_object("energy").meta.object_id, ">", "float", 2.0)
        with pytest.raises(PDCError, match="timeout_s"):
            PDCquery_set_timeout(query, value)
        assert query.timeout_s is None


@pytest.mark.parametrize("value", GOOD, ids=repr)
def test_accepted_everywhere(system, value):
    assert check_timeout(value) == float(value)
    assert QuerySpec(NODE, timeout_s=value).timeout_s == value
    res = QueryEngine(system).execute(NODE, timeout_s=value)
    assert res.timed_out == (value < 1e-6)
    query = PDCquery_create(system, system.get_object("energy").meta.object_id, ">", "float", 2.0)
    PDCquery_set_timeout(query, value)
    assert query.timeout_s == float(value)


def test_none_is_no_budget(system):
    assert check_timeout(None) is None
    assert not QueryEngine(system).execute(NODE, timeout_s=None).timed_out
    query = PDCquery_create(system, system.get_object("energy").meta.object_id, ">", "float", 2.0)
    PDCquery_set_timeout(query, 1.0)
    PDCquery_set_timeout(query, None)
    assert query.timeout_s is None


def capi_query(sysm, value=2.0, name="energy"):
    return PDCquery_create(sysm, sysm.get_object(name).meta.object_id, ">", "float", value)


def test_capi_timeout_reaches_the_engine_deadline(system):
    query = capi_query(system)
    PDCquery_set_timeout(query, 1e-9)
    PDCquery_get_nhits(query)
    assert query.last_result.timed_out
    assert not query.last_result.complete


def test_combined_queries_keep_the_tighter_timeout():
    sysm = make_system()
    rng = np.random.default_rng(12345)
    sysm.create_object("energy", rng.gamma(2.0, 0.7, 1 << 12).astype(np.float32))
    sysm.create_object("x", (rng.random(1 << 12) * 300.0).astype(np.float32))
    q1, q2 = capi_query(sysm, 2.0, "energy"), capi_query(sysm, 100.0, "x")
    PDCquery_set_timeout(q1, 5.0)
    PDCquery_set_timeout(q2, 1.0)
    assert PDCquery_and(q1, q2).timeout_s == 1.0


def test_execute_batch_forwards_each_timeout(system):
    q1, q2 = capi_query(system, 1.0), capi_query(system, 2.0)
    PDCquery_set_timeout(q1, 1e-9)
    sched = QueryScheduler(system, max_width=2, use_selection_cache=False)
    try:
        PDCquery_execute_batch(system, [q1, q2], scheduler=sched)
    finally:
        sched.close()
    assert sched.batches[-1].width == 2
    assert q1.last_result.timed_out
    assert not q2.last_result.timed_out
