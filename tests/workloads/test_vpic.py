"""Synthetic VPIC generator: calibration and structure."""

import numpy as np
import pytest

from repro.errors import PDCError
from repro.workloads.vpic import BOX_X, BOX_Y, BOX_Z, VARIABLES, VPICConfig, VPICDataset, generate_vpic


@pytest.fixture(scope="module")
def ds():
    return generate_vpic(VPICConfig(n_particles=1 << 17))


class TestStructure:
    def test_all_variables_present(self, ds):
        assert set(ds.arrays) == set(VARIABLES)

    def test_all_float32_same_length(self, ds):
        sizes = {a.size for a in ds.arrays.values()}
        assert len(sizes) == 1
        assert all(a.dtype == np.float32 for a in ds.arrays.values())

    def test_particle_count_rounded_to_cells(self):
        cfg = VPICConfig(n_particles=1000)  # 64 particles per cell
        ds = generate_vpic(cfg)
        assert ds.n_particles == 960  # 15 full cells

    def test_positions_inside_box(self, ds):
        for var, (lo, hi) in (("x", BOX_X), ("y", BOX_Y), ("z", BOX_Z)):
            a = ds.arrays[var]
            assert a.min() >= lo and a.max() <= hi

    def test_deterministic(self):
        a = generate_vpic(VPICConfig(n_particles=1 << 14, seed=5))
        b = generate_vpic(VPICConfig(n_particles=1 << 14, seed=5))
        assert np.array_equal(a.arrays["Energy"], b.arrays["Energy"])

    def test_seed_changes_data(self):
        a = generate_vpic(VPICConfig(n_particles=1 << 14, seed=5))
        b = generate_vpic(VPICConfig(n_particles=1 << 14, seed=6))
        assert not np.array_equal(a.arrays["Energy"], b.arrays["Energy"])

    def test_too_few_particles_rejected(self):
        with pytest.raises(PDCError):
            VPICConfig(n_particles=10)


class TestCalibration:
    def test_paper_selectivity_endpoints(self, ds):
        """§V: 3.5<E<3.6 ≈ 0.0004 %, 2.1<E<2.2 ≈ 1.3 %."""
        low = ds.selectivity("Energy", 2.1, 2.2)
        high = ds.selectivity("Energy", 3.5, 3.6)
        assert 0.008 < low < 0.020          # ~1.3 %
        # ~0.0004 % — may round to zero particles at this test size.
        assert 0.0 <= high < 0.0001

    def test_selectivity_monotone_along_windows(self, ds):
        sels = [ds.selectivity("Energy", c, c + 0.1) for c in np.linspace(3.5, 2.1, 15)]
        # Increasing (allowing noise at the tiny end).
        assert sels[-1] > sels[0] * 100

    def test_planner_flip_condition(self, ds):
        """P(E>1.3) must exceed the narrow x-window fraction so the last
        multi-object queries evaluate x first (§VI-B)."""
        p_e = float((ds.arrays["Energy"] > 1.3).mean())
        p_x = float(((ds.arrays["x"] > 100) & (ds.arrays["x"] < 125)).mean())
        assert p_e > p_x
        # ... while E>2.0 is far more selective than its window.
        p_e2 = float((ds.arrays["Energy"] > 2.0).mean())
        p_x2 = float(((ds.arrays["x"] > 100) & (ds.arrays["x"] < 200)).mean())
        assert p_e2 < p_x2


class TestClustering:
    def test_energetic_particles_spatially_clustered(self, ds):
        """Regions (contiguous chunks) must be largely prunable for
        high-energy windows — the property behind PDC-H's wins."""
        e = ds.arrays["Energy"]
        chunks = np.array_split(e, 256)
        has_hot = sum(1 for c in chunks if (c > 2.5).any())
        assert has_hot < 0.6 * 256

    def test_tail_in_sheet(self, ds):
        """Energetic particles concentrate near the current sheet |y|<50."""
        e, y = ds.arrays["Energy"], ds.arrays["y"]
        hot = e > 2.5
        assert np.abs(y[hot]).mean() < np.abs(y).mean()

    def test_cell_order_locality_helps_wah(self, ds):
        """Within-cell sorting must make the bitmap index smaller than on
        shuffled data."""
        from repro.bitmap import ObjectIndex

        e = ds.arrays["Energy"][: 1 << 13].astype(np.float64)
        shuffled = np.random.default_rng(0).permutation(e)
        ordered_size = ObjectIndex.build(e, [e.size])[0].nbytes[0]
        shuffled_size = ObjectIndex.build(shuffled, [e.size])[0].nbytes[0]
        assert ordered_size < shuffled_size
