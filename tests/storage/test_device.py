"""Tests for storage devices."""

import pytest

from repro.errors import CapacityError, StorageError
from repro.storage.device import DeviceKind, StorageDevice


def make_dev(capacity=1000):
    return StorageDevice(
        name="d0",
        kind=DeviceKind.DISK,
        capacity_bytes=capacity,
        read_bandwidth_bps=1e9,
        write_bandwidth_bps=1e9,
        access_latency_s=1e-3,
    )


class TestDeviceKind:
    def test_order(self):
        assert DeviceKind.is_faster(DeviceKind.MEMORY, DeviceKind.DISK)
        assert DeviceKind.is_faster(DeviceKind.NVRAM, DeviceKind.TAPE)
        assert not DeviceKind.is_faster(DeviceKind.TAPE, DeviceKind.MEMORY)


class TestStorageDevice:
    def test_bad_kind_rejected(self):
        with pytest.raises(StorageError):
            StorageDevice("x", "floppy", 10, 1, 1, 1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(StorageError):
            make_dev(capacity=0)

    def test_allocate_and_free(self):
        d = make_dev()
        d.allocate("a", 400)
        assert d.used_bytes == 400 and d.free_bytes == 600
        assert d.holds("a") and d.allocation_of("a") == 400
        assert d.release("a") == 400
        assert d.used_bytes == 0

    def test_over_capacity_rejected(self):
        d = make_dev()
        d.allocate("a", 900)
        with pytest.raises(CapacityError):
            d.allocate("b", 200)

    def test_duplicate_extent_rejected(self):
        d = make_dev()
        d.allocate("a", 10)
        with pytest.raises(StorageError):
            d.allocate("a", 10)

    def test_negative_allocation_rejected(self):
        with pytest.raises(StorageError):
            make_dev().allocate("a", -1)

    def test_resize(self):
        d = make_dev()
        d.allocate("a", 100)
        d.resize("a", 500)
        assert d.used_bytes == 500
        d.resize("a", 50)
        assert d.used_bytes == 50

    def test_resize_over_capacity(self):
        d = make_dev()
        d.allocate("a", 100)
        with pytest.raises(CapacityError):
            d.resize("a", 2000)

    def test_resize_missing_extent(self):
        with pytest.raises(StorageError):
            make_dev().resize("nope", 10)

    def test_release_missing_extent(self):
        with pytest.raises(StorageError):
            make_dev().release("nope")

