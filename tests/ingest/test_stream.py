"""IngestStream epoch mechanics: buffering, boundaries, determinism,
and the ingest telemetry/SLO wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PDCError
from repro.ingest import IngestConfig, IngestStream
from repro.obs.monitor import ServiceMonitor
from repro.obs.slo import SLO
from tests.conftest import make_system


def loaded(seed=12345, **cfg_kwargs):
    sysm = make_system(region_size_bytes=1 << 11, **cfg_kwargs)
    rng = np.random.default_rng(seed)
    sysm.create_object("obj", rng.random(1 << 12).astype(np.float32))
    sysm.build_index("obj")
    return sysm


class TestConfig:
    def test_validation(self):
        with pytest.raises(PDCError):
            IngestConfig(epoch_interval_s=0.0)
        with pytest.raises(PDCError):
            IngestConfig(maintenance="lazy")
        with pytest.raises(PDCError):
            IngestConfig(index_compact_fraction=1.5)


class TestBuffering:
    def test_ops_buffer_until_epoch_closes(self):
        sysm = loaded()
        stream = IngestStream(sysm, IngestConfig(epoch_interval_s=0.5))
        before = sysm.get_object("obj").data.copy()
        stream.update("obj", 0, np.full(8, 9.0, dtype=np.float32), t_s=0.1)
        stream.append("obj", np.full(4, 9.0, dtype=np.float32), t_s=0.2)
        assert len(stream._pending) == 2
        # Nothing applied yet: payload untouched.
        assert np.array_equal(sysm.get_object("obj").data, before)
        assert stream.totals()["epochs"] == 0

    def test_rejects_bad_payloads(self):
        sysm = loaded()
        stream = IngestStream(sysm)
        with pytest.raises(PDCError):
            stream.append("obj", np.zeros(0, dtype=np.float32))
        with pytest.raises(PDCError):
            stream.update("obj", 0, np.zeros((2, 2), dtype=np.float32))
        # Refused at submission, not when its epoch applies.
        with pytest.raises(PDCError, match="finite"):
            stream.append("obj", np.array([1.0, np.nan], dtype=np.float32))
        assert len(stream._pending) == 0

    def test_rejects_out_of_order_arrivals(self):
        sysm = loaded()
        stream = IngestStream(sysm)
        stream.update("obj", 0, np.ones(4, dtype=np.float32), t_s=1.0)
        with pytest.raises(PDCError):
            stream.update("obj", 8, np.ones(4, dtype=np.float32), t_s=0.5)

    def test_rejects_writes_into_applied_epochs(self):
        sysm = loaded()
        stream = IngestStream(sysm, IngestConfig(epoch_interval_s=0.5))
        stream.advance_to(2.0)
        with pytest.raises(PDCError):
            stream.update("obj", 0, np.ones(4, dtype=np.float32), t_s=1.0)


class TestEpochs:
    def test_epoch_of(self):
        stream = IngestStream(loaded(), IngestConfig(epoch_interval_s=0.5))
        assert stream.epoch_of(0.0) == 0
        assert stream.epoch_of(0.49) == 0
        assert stream.epoch_of(0.5) == 1
        assert stream.epoch_of(1.7) == 3

    def test_advance_applies_only_closed_epochs(self):
        sysm = loaded()
        stream = IngestStream(sysm, IngestConfig(epoch_interval_s=0.5))
        stream.update("obj", 0, np.full(8, 5.0, dtype=np.float32), t_s=0.1)
        stream.update("obj", 16, np.full(8, 6.0, dtype=np.float32), t_s=0.6)
        applied = stream.advance_to(0.5)
        assert [e.epoch for e in applied] == [0]
        assert len(stream._pending) == 1
        obj = sysm.get_object("obj")
        assert np.all(obj.data[0:8] == 5.0)
        assert not np.any(obj.data[16:24] == 6.0)
        applied = stream.advance_to(1.0)
        assert [e.epoch for e in applied] == [1]
        assert np.all(sysm.get_object("obj").data[16:24] == 6.0)

    def test_flush_applies_remainder(self):
        sysm = loaded()
        stream = IngestStream(sysm, IngestConfig(epoch_interval_s=0.5))
        assert stream.flush() is None
        stream.update("obj", 0, np.full(8, 5.0, dtype=np.float32), t_s=0.1)
        ep = stream.flush()
        assert ep is not None and ep.n_ops == 1 and ep.n_elements == 8
        assert len(stream._pending) == 0
        assert np.all(sysm.get_object("obj").data[0:8] == 5.0)

    def test_epoch_result_counters_and_regions(self):
        sysm = loaded()
        stream = IngestStream(
            sysm, IngestConfig(epoch_interval_s=0.5, maintenance="delta")
        )
        # 512 f32 per region: touch regions 1 then 0 — report sorted.
        stream.update("obj", 600, np.ones(8, dtype=np.float32), t_s=0.1)
        stream.update("obj", 10, np.ones(8, dtype=np.float32), t_s=0.2)
        (ep,) = stream.advance_to(0.5)
        assert ep.n_ops == 2 and ep.n_elements == 16
        assert ep.regions == {"obj": [0, 1]}
        assert ep.hist_merges == 2
        assert ep.index_delta_appends == 2
        assert ep.lag_s >= 0.0

    def test_apply_advances_clocks_to_barrier(self):
        sysm = loaded()
        stream = IngestStream(sysm, IngestConfig(epoch_interval_s=0.5))
        stream.update("obj", 0, np.ones(8, dtype=np.float32), t_s=0.1)
        stream.advance_to(0.5)
        # Every clock reached the epoch's apply instant (the boundary).
        assert all(c.now >= 0.5 for c in sysm.all_clocks())
        assert any("ingest_wait" in c.breakdown() for c in sysm.all_clocks())

    def test_totals_accumulate(self):
        sysm = loaded()
        stream = IngestStream(
            sysm, IngestConfig(epoch_interval_s=0.5, maintenance="delta")
        )
        applied = []
        for i in range(4):
            stream.update(
                "obj", 32 * i, np.ones(16, dtype=np.float32),
                t_s=0.6 * i + 0.1,
            )
            applied += stream.advance_to(0.6 * i + 0.3)
        applied.append(stream.flush())
        applied = [e for e in applied if e is not None]
        t = stream.totals()
        assert t["ops"] == 4 and t["elements"] == 64
        assert t["epochs"] == len(applied)
        assert t["max_lag_s"] == max(e.lag_s for e in applied)
        assert t["hist_merges"] + t["hist_rebuilds"] >= 4


class TestDeterminism:
    def run_once(self):
        sysm = loaded()
        stream = IngestStream(
            sysm,
            IngestConfig(
                epoch_interval_s=0.25, maintenance="delta",
                index_compact_fraction=0.05,
            ),
        )
        wrng = np.random.default_rng(99)
        for i in range(12):
            off = int(wrng.integers(0, (1 << 12) - 64))
            stream.update(
                "obj", off, wrng.random(64).astype(np.float32),
                t_s=0.1 * i + 0.01,
            )
            stream.advance_to(0.1 * i + 0.05)
        stream.flush()
        obj = sysm.get_object("obj")
        return (
            stream.totals(),
            obj.data.tobytes(),
            obj.rmin.tobytes(),
            obj.rmax.tobytes(),
            {c.name: c.breakdown() for c in sysm.all_clocks()},
        )

    def test_same_seed_runs_are_bit_identical(self):
        assert self.run_once() == self.run_once()


class TestTelemetry:
    def test_ingest_series_and_sli_recorded(self):
        sysm = loaded()
        mon = ServiceMonitor(
            slos=(
                SLO(
                    name="ingest-lag", tenant="ingest", sli="ingest_lag",
                    objective=0.9, threshold_s=0.05,
                    fast_window_s=1.0, slow_window_s=5.0,
                ),
            )
        )
        sysm.set_monitor(mon)
        stream = IngestStream(
            sysm, IngestConfig(epoch_interval_s=0.5, maintenance="delta")
        )
        stream.update("obj", 0, np.ones(32, dtype=np.float32), t_s=0.1)
        stream.advance_to(0.5)
        ops = mon.recorder.series("pdc_ingest_ops", labels={"tenant": "ingest"})
        assert ops is not None and len(ops.samples) == 1
        lag = mon.recorder.series(
            "pdc_ingest_lag_sim_seconds", labels={"tenant": "ingest"}
        )
        assert lag is not None
        state = mon.slo.states[0]
        assert state.total == 1  # the epoch was judged by the ingest SLI

    def test_a_monitor_installed_after_the_first_epoch_sees_the_next(self):
        """The stream reports to the system's monitor as installed when an
        epoch applies, as the service's own hooks do, not to the one it
        found when it was made."""
        sysm = loaded()
        stream = IngestStream(sysm, IngestConfig(epoch_interval_s=0.5))
        stream.update("obj", 0, np.ones(32, dtype=np.float32), t_s=0.1)
        stream.advance_to(0.5)
        mon = ServiceMonitor()
        sysm.set_monitor(mon)
        stream.update("obj", 64, np.ones(32, dtype=np.float32), t_s=0.6)
        stream.advance_to(1.0)
        ops = mon.recorder.series("pdc_ingest_ops", labels={"tenant": "ingest"})
        assert ops is not None and len(ops.samples) == 1

    def test_request_slis_ignore_ingest_epochs(self):
        sysm = loaded()
        mon = ServiceMonitor(
            slos=(
                SLO(
                    name="waits", tenant="*", sli="queue_wait",
                    objective=0.9, threshold_s=0.01,
                ),
            )
        )
        sysm.set_monitor(mon)
        stream = IngestStream(sysm, IngestConfig(epoch_interval_s=0.5))
        stream.update("obj", 0, np.ones(32, dtype=np.float32), t_s=0.1)
        stream.advance_to(0.5)
        # Ingest epochs are outside every request-oriented SLI population.
        assert mon.slo.states[0].total == 0
