"""Region migration across the memory/storage hierarchy (§II)."""

import numpy as np
import pytest

from repro.errors import PDCError
from repro.query.ast import AndNode, Condition
from repro.query.executor import QueryEngine
from repro.storage.device import DeviceKind
from repro.storage.file import PDC_STRIPE_COUNT
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp
from tests.conftest import make_system


def cond(name, op, value):
    return Condition(object_name=name, op=QueryOp(op), pdc_type=PDCType.FLOAT, value=value)


@pytest.fixture
def env(rng):
    # Virtual scaling so tier bandwidth differences dominate latencies.
    sysm = make_system(n_servers=2, region_size_bytes=1 << 21, virtual_scale=256.0)
    data = rng.random(1 << 14).astype(np.float32)
    sysm.create_object("obj", data)
    return sysm, data


class TestTierReadTimes:
    def test_tier_ordering(self, env):
        sysm, _ = env
        cost = sysm.cost
        kwargs = dict(nbytes=1 << 22, n_accesses=1, stripe_count=8)
        t_mem = cost.tier_read_time(tier=DeviceKind.MEMORY, **kwargs)
        t_bb = cost.tier_read_time(tier=DeviceKind.NVRAM, **kwargs)
        t_disk = cost.tier_read_time(tier=DeviceKind.DISK, **kwargs)
        t_tape = cost.tier_read_time(tier=DeviceKind.TAPE, **kwargs)
        assert t_mem < t_bb < t_disk < t_tape

    def test_unknown_tier_rejected(self, env):
        sysm, _ = env
        with pytest.raises(ValueError):
            sysm.cost.tier_read_time(100, 1, "floppy", 8)


class TestMigration:
    def test_default_tier_is_disk(self, env):
        sysm, _ = env
        obj = sysm.get_object("obj")
        assert all(obj.tier_of(r) == DeviceKind.DISK for r in range(obj.n_regions))

    def test_migrate_updates_tier_and_metadata(self, env):
        sysm, _ = env
        sysm.migrate_regions("obj", [0, 1], DeviceKind.NVRAM)
        obj = sysm.get_object("obj")
        assert obj.tier_of(0) == DeviceKind.NVRAM
        assert obj.meta.regions[0].tier == DeviceKind.NVRAM
        assert obj.tier_of(2) == DeviceKind.DISK

    def test_migration_charges_time(self, env):
        sysm, _ = env
        before = max(s.clock.now for s in sysm.servers)
        sysm.migrate_regions("obj", [0], DeviceKind.NVRAM)
        assert max(s.clock.now for s in sysm.servers) > before

    def test_noop_migration_free(self, env):
        sysm, _ = env
        before = max(s.clock.now for s in sysm.servers)
        sysm.migrate_regions("obj", [0], DeviceKind.DISK)
        assert max(s.clock.now for s in sysm.servers) == before

    def test_bad_region_or_tier_rejected(self, env):
        sysm, _ = env
        with pytest.raises(PDCError):
            sysm.migrate_regions("obj", [999], DeviceKind.NVRAM)
        with pytest.raises(PDCError):
            sysm.migrate_regions("obj", [0], "cloud")

    def test_burst_buffer_speeds_cold_queries(self, env):
        """Staging hot regions to NVRAM makes cold evaluation faster —
        the hierarchy pay-off the PDC design targets."""
        sysm, data = env
        engine = QueryEngine(sysm)
        node = cond("obj", ">", 0.0)  # touches every region
        disk = engine.execute(node).elapsed_s
        obj = sysm.get_object("obj")
        sysm.migrate_regions("obj", range(obj.n_regions), DeviceKind.NVRAM)
        sysm.drop_all_caches()
        bb = engine.execute(node).elapsed_s
        assert bb < disk

    def test_answers_unchanged_by_migration(self, env):
        sysm, data = env
        engine = QueryEngine(sysm)
        truth = int((data > 0.7).sum())
        sysm.migrate_regions("obj", [0], DeviceKind.NVRAM)
        sysm.migrate_regions("obj", [1], DeviceKind.TAPE)
        assert engine.execute(cond("obj", ">", 0.7)).nhits == truth

    @pytest.mark.parametrize("path", ["index_probe", "get_data"])
    def test_every_data_read_honours_the_regions_tier(self, env, path):
        """The regression: PDC-HI's candidate check and ``get_data`` charged
        an NVRAM-resident region as a Lustre read (only PDC-F/H looked at
        the tier).  Each cold data-region read costs exactly
        ``CostModel.tier_read_time`` of the tier that holds it."""
        sysm, _ = env
        sysm.build_index("obj")
        engine = QueryEngine(sysm)
        obj = sysm.get_object("obj")
        # Off the bin grid: boundary-bin candidates force raw-region reads.
        node = AndNode((cond("obj", ">", 0.123), cond("obj", "<", 0.456)))
        selection = engine.execute(node, strategy=Strategy.HISTOGRAM).selection

        def cold_read_seconds():
            sysm.drop_all_caches()
            before = sum(s.clock.breakdown().get("pfs_read", 0.0) for s in sysm.servers)
            if path == "index_probe":
                res = engine.execute(node, strategy=Strategy.HIST_INDEX)
            else:
                res = engine.get_data(selection, "obj", strategy=Strategy.HISTOGRAM)
            assert res.regions_read == obj.n_regions
            after = sum(s.clock.breakdown().get("pfs_read", 0.0) for s in sysm.servers)
            return after - before

        on_disk = cold_read_seconds()
        sysm.migrate_regions("obj", range(obj.n_regions), DeviceKind.NVRAM)
        on_nvram = cold_read_seconds()
        assert on_nvram < on_disk
        assert on_nvram == pytest.approx(sum(
            sysm.cost.tier_read_time(
                int(n) * obj.itemsize, 1, DeviceKind.NVRAM, PDC_STRIPE_COUNT
            )
            for n in obj.counts
        ))
