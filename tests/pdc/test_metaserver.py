"""Metadata service: sharding, tag queries, checkpoint/restore."""

import pytest

from repro.errors import MetadataError, ObjectNotFoundError
from repro.pdc.metadata import ObjectMeta
from repro.pdc.metaserver import MetadataService
from repro.obs.metrics import MetricsRegistry
from repro.storage.costmodel import CostModel, SimClock
from repro.storage.file import ParallelFileSystem
from repro.types import PDCType


def make_service(n_shards=4):
    pfs = ParallelFileSystem(cost=CostModel(), metrics=MetricsRegistry())
    return MetadataService(n_shards, pfs)


def make_meta(svc, name, tags=None):
    return ObjectMeta(
        name=name,
        object_id=svc.allocate_object_id(),
        pdc_type=PDCType.FLOAT,
        tags=tags or {},
    )


class TestCRUD:
    def test_create_and_get(self):
        svc = make_service()
        svc.create(make_meta(svc, "obj1"))
        assert svc.get("obj1").name == "obj1"
        assert len(svc) == 1

    def test_duplicate_rejected(self):
        svc = make_service()
        svc.create(make_meta(svc, "obj1"))
        with pytest.raises(MetadataError):
            svc.create(make_meta(svc, "obj1"))

    def test_get_missing(self):
        with pytest.raises(ObjectNotFoundError):
            make_service().get("nope")

    def test_delete(self):
        svc = make_service()
        svc.create(make_meta(svc, "obj1"))
        svc.delete("obj1")
        assert len(svc) == 0
        with pytest.raises(ObjectNotFoundError):
            svc.delete("obj1")

    def test_object_ids_unique(self):
        svc = make_service()
        ids = {svc.allocate_object_id() for _ in range(100)}
        assert len(ids) == 100

    def test_zero_shards_rejected(self):
        with pytest.raises(MetadataError):
            make_service(n_shards=0)


class TestSharding:
    def test_each_name_exactly_one_shard(self):
        svc = make_service(n_shards=8)
        for i in range(200):
            assert 0 <= svc.shard_of(f"obj{i}") < 8

    def test_shard_deterministic(self):
        a = make_service(n_shards=8)
        b = make_service(n_shards=8)
        for i in range(50):
            assert a.shard_of(f"obj{i}") == b.shard_of(f"obj{i}")

    def test_distribution_roughly_even(self):
        svc = make_service(n_shards=4)
        from collections import Counter

        c = Counter(svc.shard_of(f"object-{i}") for i in range(4000))
        assert all(700 < v < 1300 for v in c.values())


class TestTagQueries:
    def test_exact_match(self):
        svc = make_service()
        svc.create(make_meta(svc, "a", {"RADEG": 153.17, "DECDEG": 23.06}))
        svc.create(make_meta(svc, "b", {"RADEG": 153.17, "DECDEG": 99.0}))
        svc.create(make_meta(svc, "c", {"RADEG": 10.0}))
        assert svc.query_tags({"RADEG": 153.17, "DECDEG": 23.06}) == ["a"]
        assert svc.query_tags({"RADEG": 153.17}) == ["a", "b"]
        assert svc.query_tags({}) == ["a", "b", "c"]

    def test_missing_key_no_match(self):
        svc = make_service()
        svc.create(make_meta(svc, "a", {"x": 1}))
        assert svc.query_tags({"y": 1}) == []

    def test_query_charges_clock(self):
        svc = make_service()
        for i in range(100):
            svc.create(make_meta(svc, f"o{i}", {"k": i}))
        clock = SimClock()
        svc.query_tags({"k": 5}, clock=clock)
        assert clock.now > 0


class TestCheckpointRestore:
    def test_roundtrip(self):
        svc = make_service()
        svc.create(make_meta(svc, "a", {"k": 1}))
        svc.create(make_meta(svc, "b", {"k": 2}))
        svc.checkpoint()
        # Simulate data loss.
        svc._shards = [dict() for _ in range(svc.n_shards)]
        assert len(svc) == 0
        svc.restore()
        assert len(svc) == 2
        assert svc.get("a").tags == {"k": 1}

    def test_restore_preserves_id_counter(self):
        svc = make_service()
        svc.create(make_meta(svc, "a"))
        next_id = svc._next_object_id
        svc.checkpoint()
        svc.restore()
        assert svc.allocate_object_id() == next_id

    def test_restore_without_checkpoint_rejected(self):
        with pytest.raises(MetadataError):
            make_service().restore()

    def test_checkpoint_overwrites_previous(self):
        svc = make_service()
        svc.create(make_meta(svc, "a"))
        svc.checkpoint()
        svc.create(make_meta(svc, "b"))
        svc.checkpoint()
        svc._shards = [dict() for _ in range(svc.n_shards)]
        svc.restore()
        assert len(svc) == 2

    def test_checkpoint_charges_clock(self):
        svc = make_service()
        svc.create(make_meta(svc, "a"))
        clock = SimClock()
        svc.checkpoint(clock=clock)
        assert clock.now > 0


class TestRangeTagQueries:
    """Extension: metadata predicates beyond exact equality."""

    def _svc_with_plates(self):
        svc = make_service()
        for i, (ra, mjd) in enumerate([(10.0, 55000), (150.5, 55200), (200.0, 55400)]):
            svc.create(make_meta(svc, f"o{i}", {"RADEG": ra, "MJD": mjd, "NAME": f"p{i}"}))
        return svc

    def test_interval_predicate(self):
        from repro.interval import Interval

        svc = self._svc_with_plates()
        got = svc.query_tags({"RADEG": Interval(lo=100.0, hi=250.0)})
        assert got == ["o1", "o2"]

    def test_op_value_predicate(self):
        svc = self._svc_with_plates()
        assert svc.query_tags({"MJD": (">=", 55200)}) == ["o1", "o2"]
        assert svc.query_tags({"MJD": ("<", 55200)}) == ["o0"]
        assert svc.query_tags({"MJD": ("=", 55400)}) == ["o2"]

    def test_mixed_predicates(self):
        svc = self._svc_with_plates()
        got = svc.query_tags({"RADEG": (">", 100.0), "NAME": "p1"})
        assert got == ["o1"]

    def test_range_on_non_numeric_tag_no_match(self):
        svc = self._svc_with_plates()
        assert svc.query_tags({"NAME": (">", 5)}) == []

    def test_missing_key_no_match_with_predicate(self):
        svc = self._svc_with_plates()
        assert svc.query_tags({"ABSENT": (">", 0)}) == []
