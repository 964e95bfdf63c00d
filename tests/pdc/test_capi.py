"""C-style PDC object API shims (§II's prior-work interface)."""

import numpy as np
import pytest

from repro.errors import ObjectNotFoundError, PDCError, QueryTypeError
from repro.pdc.capi import (
    ObjectProperty,
    PDCclose,
    PDCcont_create,
    PDCinit,
    PDCobj_create,
    PDCobj_del,
    PDCobj_get_data,
    PDCobj_get_tag,
    PDCobj_put_data,
    PDCobj_put_tag,
    PDCprop_create,
    PDCprop_set_obj_dims,
    PDCprop_set_obj_type,
)
from repro.pdc.system import PDCConfig
from repro.query.api import PDCquery_create, PDCquery_get_nhits


@pytest.fixture
def pdc():
    return PDCinit("pdc", PDCConfig(n_servers=2, region_size_bytes=1 << 12))


def create_energy(pdc, n=4096, cont="c1"):
    PDCcont_create(pdc, cont)
    prop = PDCprop_create(pdc)
    PDCprop_set_obj_dims(prop, (n,))
    PDCprop_set_obj_type(prop, "float")
    return PDCobj_create(pdc, cont, "Energy", prop)


class TestLifecycle:
    def test_full_c_style_program(self, pdc, rng):
        """The §II usage pattern end to end, including a query on top."""
        obj_id = create_energy(pdc)
        payload = rng.gamma(2.0, 0.7, 4096).astype(np.float32)
        PDCobj_put_data(pdc, obj_id, payload)
        PDCobj_put_tag(pdc, obj_id, "run", 42)
        assert PDCobj_get_tag(pdc, obj_id, "run") == 42
        assert np.array_equal(PDCobj_get_data(pdc, obj_id), payload)
        q = PDCquery_create(pdc, obj_id, ">", "float", 2.0)
        assert PDCquery_get_nhits(q) == int((payload > 2.0).sum())

    def test_create_zero_filled(self, pdc):
        obj_id = create_energy(pdc)
        assert not PDCobj_get_data(pdc, obj_id).any()

    def test_nd_dims(self, pdc):
        PDCcont_create(pdc, "c2")
        prop = PDCprop_create(pdc)
        PDCprop_set_obj_dims(prop, (32, 64))
        PDCprop_set_obj_type(prop, "double")
        obj_id = PDCobj_create(pdc, "c2", "grid", prop)
        assert pdc.get_object_by_id(obj_id).meta.dims == (32, 64)

    def test_incomplete_property_rejected(self, pdc):
        PDCcont_create(pdc, "c1")
        prop = PDCprop_create(pdc)
        with pytest.raises(PDCError):
            PDCobj_create(pdc, "c1", "o", prop)

    def test_bad_dims_rejected(self, pdc):
        prop = PDCprop_create(pdc)
        with pytest.raises(PDCError):
            PDCprop_set_obj_dims(prop, (0,))
        with pytest.raises(PDCError):
            PDCprop_set_obj_dims(prop, ())


class TestDataOps:
    def test_partial_put_maintains_histograms(self, pdc, rng):
        obj_id = create_energy(pdc)
        PDCobj_put_data(pdc, obj_id, np.full(100, 9.0, dtype=np.float32), offset=500)
        obj = pdc.get_object_by_id(obj_id)
        assert obj.meta.global_histogram.merged.data_max == 9.0

    def test_dtype_mismatch_rejected(self, pdc):
        obj_id = create_energy(pdc)
        with pytest.raises(QueryTypeError):
            PDCobj_put_data(pdc, obj_id, np.zeros(10, dtype=np.float64))

    def test_get_slice(self, pdc, rng):
        obj_id = create_energy(pdc)
        payload = rng.random(4096).astype(np.float32)
        PDCobj_put_data(pdc, obj_id, payload)
        got = PDCobj_get_data(pdc, obj_id, offset=100, count=50)
        assert np.array_equal(got, payload[100:150])

    def test_get_out_of_bounds(self, pdc):
        obj_id = create_energy(pdc)
        with pytest.raises(PDCError):
            PDCobj_get_data(pdc, obj_id, offset=4000, count=1000)

    def test_get_returns_copy(self, pdc):
        obj_id = create_energy(pdc)
        got = PDCobj_get_data(pdc, obj_id)
        got[:] = 1.0
        assert not PDCobj_get_data(pdc, obj_id).any()

    def test_missing_tag(self, pdc):
        obj_id = create_energy(pdc)
        with pytest.raises(PDCError):
            PDCobj_get_tag(pdc, obj_id, "nope")


class TestDelete:
    def test_delete_removes_everything(self, pdc, rng):
        obj_id = create_energy(pdc)
        pdc.build_index("Energy")
        pdc.build_sorted_replica("Energy")
        PDCobj_del(pdc, obj_id)
        with pytest.raises(ObjectNotFoundError):
            pdc.get_object("Energy")
        assert not pdc.pfs.exists("/pdc/data/Energy")
        assert not pdc.pfs.exists("/pdc/index/Energy")
        assert "Energy" not in pdc.replicas
        assert "Energy" not in pdc.containers["c1"]._members
        assert pdc.metadata.query_tags({}) == []

    def test_name_reusable_after_delete(self, pdc):
        obj_id = create_energy(pdc)
        PDCobj_del(pdc, obj_id)
        new_id = create_energy(pdc, cont="c9")
        assert new_id != obj_id


class TestClose:
    def test_close_checkpoints_metadata(self, pdc):
        create_energy(pdc)
        PDCclose(pdc)
        pdc.metadata._shards = [dict() for _ in range(pdc.metadata.n_shards)]
        pdc.metadata.restore()
        assert pdc.metadata.query_tags({}) == ["Energy"]
