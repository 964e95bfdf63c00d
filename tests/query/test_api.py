"""The paper-facing PDCquery_* API surface (Fig. 1)."""

import numpy as np
import pytest

from repro.errors import QueryError, QueryShapeError, QueryTypeError
from repro.query.api import (
    PDCquery_and,
    PDCquery_create,
    PDCquery_get_data,
    PDCquery_get_data_batch,
    PDCquery_get_histogram,
    PDCquery_get_nhits,
    PDCquery_get_selection,
    PDCquery_or,
    PDCquery_set_region,
    PDCquery_tag,
)
from repro.strategies import Strategy
from tests.conftest import make_system


@pytest.fixture
def env(rng):
    sysm = make_system()
    e = rng.gamma(2.0, 0.7, 1 << 12).astype(np.float32)
    x = (rng.random(1 << 12) * 300.0).astype(np.float32)
    eo = sysm.create_object("energy", e, tags={"unit": "mc2"})
    xo = sysm.create_object("x", x)
    return sysm, e, x, eo.meta.object_id, xo.meta.object_id


class TestCreate:
    def test_basic(self, env):
        sysm, e, _, eid, _ = env
        q = PDCquery_create(sysm, eid, ">", "float", 2.0)
        assert PDCquery_get_nhits(q) == int((e > 2.0).sum())
        assert q.last_result is not None and q.last_result.elapsed_s > 0

    def test_op_as_enum_or_string(self, env):
        sysm, _, _, eid, _ = env
        from repro.types import QueryOp

        a = PDCquery_create(sysm, eid, QueryOp.GT, "float", 2.0)
        b = PDCquery_create(sysm, eid, ">", "float", 2.0)
        assert PDCquery_get_nhits(a) == PDCquery_get_nhits(b)

    def test_type_as_dtype(self, env):
        sysm, _, _, eid, _ = env
        q = PDCquery_create(sysm, eid, ">", np.float32, 2.0)
        assert PDCquery_get_nhits(q) >= 0

    def test_type_mismatch_rejected(self, env):
        sysm, _, _, eid, _ = env
        with pytest.raises(QueryTypeError):
            PDCquery_create(sysm, eid, ">", "double", 2.0)

    def test_bad_operator_rejected(self, env):
        sysm, _, _, eid, _ = env
        with pytest.raises(QueryError):
            PDCquery_create(sysm, eid, "!=", "float", 2.0)

    def test_bad_type_string_rejected(self, env):
        sysm, _, _, eid, _ = env
        with pytest.raises(QueryTypeError):
            PDCquery_create(sysm, eid, ">", "quadruple", 2.0)


class TestCombine:
    def test_and(self, env):
        sysm, e, x, eid, xid = env
        q = PDCquery_and(
            PDCquery_create(sysm, eid, ">", "float", 2.0),
            PDCquery_create(sysm, xid, "<", "float", 100.0),
        )
        assert PDCquery_get_nhits(q) == int(((e > 2.0) & (x < 100.0)).sum())

    def test_or(self, env):
        sysm, e, x, eid, xid = env
        q = PDCquery_or(
            PDCquery_create(sysm, eid, ">", "float", 3.0),
            PDCquery_create(sysm, xid, ">", "float", 295.0),
        )
        assert PDCquery_get_nhits(q) == int(((e > 3.0) | (x > 295.0)).sum())

    def test_shape_mismatch_rejected(self, env, rng):
        sysm, _, _, eid, _ = env
        other = sysm.create_object("short", rng.random(100).astype(np.float32))
        q = PDCquery_and(
            PDCquery_create(sysm, eid, ">", "float", 2.0),
            PDCquery_create(sysm, other.meta.object_id, ">", "float", 0.5),
        )
        with pytest.raises(QueryShapeError):
            PDCquery_get_nhits(q)

    def test_cross_system_combine_rejected(self, env, rng):
        sysm, _, _, eid, _ = env
        sysm2 = make_system()
        o2 = sysm2.create_object("e2", rng.random(1 << 12).astype(np.float32))
        with pytest.raises(QueryError):
            PDCquery_and(
                PDCquery_create(sysm, eid, ">", "float", 2.0),
                PDCquery_create(sysm2, o2.meta.object_id, ">", "float", 0.5),
            )


class TestRegion:
    def test_set_region(self, env):
        sysm, e, _, eid, _ = env
        q = PDCquery_create(sysm, eid, ">", "float", 2.0)
        PDCquery_set_region(q, (100, 2000))
        assert PDCquery_get_nhits(q) == int((e[100:2000] > 2.0).sum())

    def test_empty_region_rejected(self, env):
        sysm, _, _, eid, _ = env
        q = PDCquery_create(sysm, eid, ">", "float", 2.0)
        with pytest.raises(QueryError):
            PDCquery_set_region(q, (5, 5))

    def test_str_shows_region(self, env):
        sysm, _, _, eid, _ = env
        q = PDCquery_create(sysm, eid, ">", "float", 2.0)
        PDCquery_set_region(q, (0, 10))
        assert "WITHIN [0, 10)" in str(q)


class TestSelectionAndData:
    def test_selection_then_data(self, env):
        sysm, e, _, eid, _ = env
        q = PDCquery_create(sysm, eid, ">", "float", 2.0)
        sel = PDCquery_get_selection(q)
        vals = PDCquery_get_data(sysm, eid, sel)
        assert np.array_equal(vals, e[e > 2.0])

    def test_selection_fetch_other_object(self, env):
        sysm, e, x, eid, xid = env
        sel = PDCquery_get_selection(PDCquery_create(sysm, eid, ">", "float", 2.0))
        vals = PDCquery_get_data(sysm, xid, sel)
        assert np.array_equal(vals, x[e > 2.0])

    def test_batched_data(self, env):
        sysm, e, _, eid, _ = env
        sel = PDCquery_get_selection(PDCquery_create(sysm, eid, ">", "float", 1.0))
        chunks = list(PDCquery_get_data_batch(sysm, eid, sel, 64))
        assert np.array_equal(np.concatenate(chunks), e[e > 1.0])


class TestHistogramAndTags:
    def test_get_histogram(self, env):
        sysm, e, _, eid, _ = env
        h = PDCquery_get_histogram(sysm, eid)
        assert h.merged.total == e.size

    def test_tag_query(self, env):
        sysm, _, _, eid, _ = env
        assert PDCquery_tag(sysm, "unit", "mc2") == [eid]
        assert PDCquery_tag(sysm, "unit", "joule") == []

    def test_strategy_override_on_query(self, env):
        sysm, e, _, eid, _ = env
        q = PDCquery_create(sysm, eid, ">", "float", 2.0)
        q.strategy = Strategy.FULL_SCAN
        assert PDCquery_get_nhits(q) == int((e > 2.0).sum())
        assert q.last_result.strategy is Strategy.FULL_SCAN
