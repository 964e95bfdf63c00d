"""Every door a write enters by applies the same admission rules before
anything is buffered, charged or written: a write position is an integer
>= 0 (``repro.types.is_index``), a payload that is not finite once cast to
the object's type is refused as such — an overflowing cast included — and
so is a value of magnitude beyond ``MAX_MAGNITUDE``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PDCError
from repro.ingest import IngestConfig, IngestStream
from repro.ingest.maintain import MAX_MAGNITUDE
from repro.pdc.capi import PDCobj_put_data
from repro.query.ast import Condition
from repro.query.executor import QueryEngine
from repro.service import QueryService, ServiceConfig, Tenant
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp, is_count, is_index
from tests.conftest import make_system

#: A fraction (truncated to 2 before), a bool (wrote at 1), a numeric
#: string (a bare TypeError) and a negative position.
BAD_POSITIONS = [2.7, True, "5", -1]
PAYLOAD = np.full(8, 3.0, dtype=np.float32)


def deployment():
    sysm = make_system(region_size_bytes=1 << 11)
    rng = np.random.default_rng(7)
    sysm.create_object("obj", rng.gamma(2.0, 0.7, 1 << 12).astype(np.float32))
    sysm.build_index("obj")
    return sysm


def snapshot(sysm):
    obj = sysm.get_object("obj")
    return (
        obj.data.copy(),
        obj.indexes.delta.copy(),
        [c.now for c in sysm.all_clocks()],
        sysm.pfs.bytes_written,
    )


def assert_unchanged(sysm, before):
    data, deltas, clocks, written = snapshot(sysm)
    assert np.array_equal(data, before[0])
    assert np.array_equal(deltas, before[1])
    assert clocks == before[2]
    assert written == before[3]


def service(sysm):
    return QueryService(
        sysm,
        ServiceConfig(
            tenants=(Tenant("q"), Tenant("ingest", kind="write")),
            ingest=IngestConfig(maintenance="delta"),
        ),
    )


def write_through(door, sysm, position, values=PAYLOAD):
    """Hand one write to ``door`` and apply whatever it buffered."""
    if door == "update_object_region":
        sysm.update_object_region("obj", position, values)
    elif door == "compact_region_index":
        sysm.compact_region_index("obj", position)
    elif door == "IngestStream.update":
        stream = IngestStream(sysm)
        stream.update("obj", position, values, t_s=0.0)
        stream.flush()
    elif door == "submit_write":
        with service(sysm) as svc:
            req = svc.submit_write("ingest", "obj", values, offset=position)
            svc.drain()
        if req.error is not None:
            raise req.error
    elif door == "PDCobj_put_data":
        PDCobj_put_data(sysm, sysm.get_object("obj").meta.object_id, values, offset=position)


DOORS = [
    "update_object_region", "compact_region_index", "IngestStream.update",
    "submit_write", "PDCobj_put_data",
]


class TestIsIndex:
    @pytest.mark.parametrize("value", [0, 5, np.int64(5), np.uint8(3), 2**70])
    def test_positions(self, value):
        assert is_index(value)

    @pytest.mark.parametrize(
        "value", [2.7, 2.0, True, False, "5", -1, np.int64(-1), np.float64(5.0),
                  float("nan"), None],
    )
    def test_not_positions(self, value):
        assert not is_index(value)

    def test_zero_is_a_position_not_a_count(self):
        assert is_index(0) and not is_count(0)


class TestWritePosition:
    @pytest.mark.parametrize("position", BAD_POSITIONS, ids=repr)
    @pytest.mark.parametrize("door", DOORS)
    def test_refused_before_anything_happens(self, door, position):
        sysm = deployment()
        before = snapshot(sysm)
        with pytest.raises(PDCError, match=r"offset|region"):
            write_through(door, sysm, position)
        assert_unchanged(sysm, before)

    @pytest.mark.parametrize("door", DOORS)
    def test_numpy_integer_accepted(self, door):
        sysm = deployment()
        obj = sysm.get_object("obj")
        if door == "compact_region_index":
            sysm.update_object_region(
                "obj", int(obj.offsets[5]), PAYLOAD, maintenance="delta"
            )
            assert obj.indexes.delta[5] == PAYLOAD.size
        write_through(door, sysm, np.int64(5))
        if door == "compact_region_index":
            assert obj.indexes.delta[5] == 0
        else:
            assert np.array_equal(obj.data[5 : 5 + PAYLOAD.size], PAYLOAD)

    def test_stream_op_records_a_python_int(self):
        stream = IngestStream(deployment())
        op = stream.update("obj", np.int64(5), PAYLOAD, t_s=0.0)
        assert type(op.offset) is int and op.offset == 5


class TestOverflowingPayload:
    """A float64 past float32's range casts to an infinity: the typed
    refusal, not the cast's RuntimeWarning (an error in this suite)."""

    @pytest.mark.parametrize(
        "write",
        [
            lambda sysm, v: sysm.update_object_region("obj", 3, v),
            lambda sysm, v: sysm.append_to_object("obj", v),
        ],
        ids=["update_object_region", "append_to_object"],
    )
    @pytest.mark.parametrize("value", [1e300, -1e300])
    def test_refused_as_not_finite(self, write, value):
        sysm = deployment()
        before = snapshot(sysm)
        n_elements = sysm.get_object("obj").n_elements
        with pytest.raises(PDCError, match="finite"):
            write(sysm, np.array([1.0, value, 2.0]))
        assert_unchanged(sysm, before)
        assert sysm.get_object("obj").n_elements == n_elements


class TestMagnitudeBound:
    """A float64 value beyond ``MAX_MAGNITUDE`` (2**1020) would give its
    region — or the region it is written into — a span no histogram grid
    can hold: every door refuses it with ``PDCError`` before any state is
    touched (it was an untyped ``OverflowError`` from the counting pass).
    The bound itself is stored and answered at every door."""

    ABOVE = float(np.nextafter(MAX_MAGNITUDE, np.inf))

    @staticmethod
    def float64_deployment():
        sysm = make_system(region_size_bytes=1 << 11)
        rng = np.random.default_rng(7)
        data = rng.uniform(-1.0, 1.0, 1 << 10)
        data[5] = -MAX_MAGNITUDE  # region 0 already spans to the bound
        sysm.create_object("obj", data)
        sysm.build_index("obj")
        return sysm

    @staticmethod
    def write(door, sysm, values):
        if door == "create_object":
            sysm.create_object("new", values)
        elif door == "append_to_object":
            sysm.append_to_object("obj", values)
        else:
            sysm.update_object_region("obj", 0, values)

    DOORS = ["create_object", "append_to_object", "update_object_region"]

    @pytest.mark.parametrize("door", DOORS)
    @pytest.mark.parametrize(
        "values",
        [[-1e308, 1e308], [ABOVE], [-ABOVE, 0.0], [1.7e308]],
        ids=["both-ends", "above", "below-minus", "region-span"],
    )
    def test_refused_before_any_state_is_touched(self, door, values):
        sysm = self.float64_deployment()
        obj = sysm.get_object("obj")
        before = snapshot(sysm)
        n_elements, files = obj.n_elements, sysm.pfs.listdir()
        with pytest.raises(PDCError, match="magnitude"):
            self.write(door, sysm, np.array(values))
        assert_unchanged(sysm, before)
        assert obj.n_elements == n_elements
        assert sysm.pfs.listdir() == files and "new" not in sysm.objects

    @pytest.mark.parametrize("door", DOORS)
    def test_the_bound_itself_is_stored_and_answered(self, door):
        sysm = self.float64_deployment()
        self.write(door, sysm, np.array([MAX_MAGNITUDE, -MAX_MAGNITUDE, 0.5]))
        name = "new" if door == "create_object" else "obj"
        data = sysm.get_object(name).data
        node = Condition(name, QueryOp.GT, PDCType.DOUBLE, 0.25)
        for strategy in (Strategy.FULL_SCAN, Strategy.HISTOGRAM, Strategy.AUTO):
            res = QueryEngine(sysm).execute(node, strategy=strategy)
            assert res.nhits == int((data > 0.25).sum())
