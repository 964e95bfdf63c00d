"""Storage hierarchy layer names."""

from repro.storage.device import DeviceKind


class TestDeviceKind:
    def test_order(self):
        # Fastest first; `PDCSystem.migrate_regions` validates tiers against it.
        assert DeviceKind.ORDER == (
            DeviceKind.MEMORY, DeviceKind.NVRAM, DeviceKind.DISK, DeviceKind.TAPE
        )
