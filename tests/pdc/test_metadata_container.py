"""ObjectMeta and Container behavior."""

import pytest

from repro.errors import MetadataError, ObjectNotFoundError
from repro.pdc.container import Container
from repro.pdc.metadata import ObjectMeta
from repro.types import PDCType


def make_meta(name="o", tags=None):
    return ObjectMeta(
        name=name,
        object_id=1,
        pdc_type=PDCType.FLOAT,
        tags=tags or {},
    )


class TestObjectMeta:
    def test_empty_name_rejected(self):
        with pytest.raises(MetadataError):
            make_meta(name="")

    def test_matches_tags(self):
        m = make_meta(tags={"RADEG": 153.17, "PLATE": 3})
        assert m.matches_tags({"RADEG": 153.17})
        assert m.matches_tags({"RADEG": 153.17, "PLATE": 3})
        assert not m.matches_tags({"RADEG": 99.0})
        assert not m.matches_tags({"MISSING": 1})
        assert m.matches_tags({})


class TestContainer:
    def test_add_and_members(self):
        c = Container("c")
        c.add("obj1")
        c.add("obj2")
        assert c._members == {"obj1", "obj2"}

    def test_duplicate_add_rejected(self):
        c = Container("c")
        c.add("o")
        with pytest.raises(MetadataError):
            c.add("o")

    def test_remove(self):
        c = Container("c")
        c.add("o")
        c.remove("o")
        assert c._members == set()
        with pytest.raises(ObjectNotFoundError):
            c.remove("o")

    def test_empty_name_rejected(self):
        with pytest.raises(MetadataError):
            Container("")
