"""Synthetic VPIC particle data (§V).

The paper's primary dataset is a 3.3 TB magnetic-reconnection run of the
VPIC plasma code: ~125 billion particles, 7 per-particle variables
(``Energy, x, y, z, Ux, Uy, Uz``) stored as 1-D arrays in cell order.  This
generator reproduces the *properties that drive the evaluation*:

* **Energy distribution** — a thermal bulk plus an accelerated exponential
  tail calibrated so the paper's query windows span the paper's
  selectivities: ``3.5 < E < 3.6`` ≈ 0.0004 % up to ``2.1 < E < 2.2`` ≈
  1.3 % (§V).
* **Spatial clustering of energetic particles** — reconnection accelerates
  particles near the current sheet (the y ≈ 0 plane), so high-energy
  particles are localized in a minority of cells.  This is what makes
  histogram min/max region elimination effective on the real data; without
  it every region would contain tail particles and PDC-H would degenerate
  to a full scan.
* **Cell-order locality** — VPIC writes particles cell by cell, so
  neighbouring array elements have similar positions and correlated
  energies (sorted within each cell here).  This locality is what gives the
  WAH bitmap index its compression (§V: index ≈ 15–17 % of data).

Sizes are configurable; ``virtual_scale`` maps the in-memory array onto a
paper-scale object for the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..errors import PDCError

__all__ = ["VPICConfig", "VPICDataset", "generate_vpic"]

#: Simulation box (matches the coordinate ranges of the paper's queries:
#: ``100 < x < 200``, ``-90 < y < 0``, ``0 < z < 66``).
BOX_X = (0.0, 300.0)
BOX_Y = (-100.0, 100.0)
BOX_Z = (0.0, 132.0)

#: All seven per-particle variables, in the paper's order.
VARIABLES = ("Energy", "x", "y", "z", "Ux", "Uy", "Uz")

#: Particles per cell (VPIC file layout granularity).
PARTICLES_PER_CELL = 64
#: Fraction of particles in the accelerated tail.
TAIL_FRACTION = 0.053
#: Exponential tail scale: density ratio across the paper's query span
#: (2.1 → 3.5) is exp(-1.4 / scale) ≈ 1/3200, giving 1.3 % → 0.0004 %.
TAIL_SCALE = 0.173
#: Tail onset energy.
TAIL_ONSET = 2.0
#: Thermal bulk: Weibull(shape) × scale.  A steep shape makes the bulk
#: die out well below the tail onset (so high-energy windows are
#: prunable and owned by the tail alone) while still putting ~10 % of
#: particles above 1.3 — which is what flips the planner to x-first on
#: the weakly-energy-selective multi-object queries (§VI-B).
THERMAL_SHAPE = 4.0
THERMAL_SCALE = 1.05
#: Width (in y) of the reconnection current sheet where tail particles
#: concentrate.
SHEET_WIDTH = 25.0
#: Relative tail weight far from any reconnection site.  Near zero so
#: quiet regions carry no energetic particles at all (prunable).
BACKGROUND_FRACTION = 1e-6


@dataclass(frozen=True)
class VPICConfig:
    """Generator parameters; the distribution's shape is the module's
    constants."""

    #: Real particles to generate (each stands for ``virtual_scale``).
    n_particles: int = 1 << 20
    seed: int = 2020

    def __post_init__(self) -> None:
        if self.n_particles < PARTICLES_PER_CELL:
            raise PDCError("need at least one full cell of particles")


@dataclass
class VPICDataset:
    """Generated particle arrays keyed by variable name (all float32,
    identical length)."""

    config: VPICConfig
    arrays: Dict[str, np.ndarray]

    @property
    def n_particles(self) -> int:
        return int(self.arrays["Energy"].size)

    def selectivity(self, variable: str, lo: float, hi: float) -> float:
        """Exact fraction of elements in the open window (lo, hi)."""
        a = self.arrays[variable]
        return float(((a > lo) & (a < hi)).mean())


def _cell_grid(n_cells: int) -> Sequence[int]:
    """Factor the cell count into an (nx, ny, nz) grid, x slowest."""
    nz = 1
    while nz * nz * nz < n_cells:
        nz *= 2
    # Find a balanced power-of-two factorization.
    best = (n_cells, 1, 1)
    n = n_cells
    for ny in (1, 2, 4, 8, 16, 32, 64, 128):
        for nz2 in (1, 2, 4, 8, 16, 32, 64, 128):
            if n % (ny * nz2) == 0:
                nx = n // (ny * nz2)
                cand = (nx, ny, nz2)
                if max(cand) / min(cand) < max(best) / min(best):
                    best = cand
    return best


def generate_vpic(config: Optional[VPICConfig] = None) -> VPICDataset:
    """Generate the synthetic particle dataset.

    Deterministic for a given config (explicit seeding throughout).
    """
    cfg = config or VPICConfig()
    rng = np.random.default_rng(cfg.seed)
    ppc = PARTICLES_PER_CELL
    n = (cfg.n_particles // ppc) * ppc
    n_cells = n // ppc
    nx, ny, nz = _cell_grid(n_cells)

    # Cell coordinates in file order (x slowest, z fastest — VPIC layout).
    cell_idx = np.arange(n_cells)
    cx = cell_idx // (ny * nz)
    cy = (cell_idx // nz) % ny
    cz = cell_idx % nz
    dx = (BOX_X[1] - BOX_X[0]) / nx
    dy = (BOX_Y[1] - BOX_Y[0]) / ny
    dz = (BOX_Z[1] - BOX_Z[0]) / nz

    # Particle positions: cell corner + uniform jitter (cell-order locality).
    jitter = rng.random((3, n))
    x = BOX_X[0] + np.repeat(cx, ppc) * dx + jitter[0] * dx
    y = BOX_Y[0] + np.repeat(cy, ppc) * dy + jitter[1] * dy
    z = BOX_Z[0] + np.repeat(cz, ppc) * dz + jitter[2] * dz

    # Tail probability peaks in the current sheet (y ~ 0) *and* around a
    # handful of reconnection sites along x: energetic particles are
    # clustered in both coordinates, like in real reconnection data.  (The
    # x-localization is what lets histogram min/max eliminate the x-slab
    # regions VPIC's cell order produces.)
    cell_y = BOX_Y[0] + (cy + 0.5) * dy
    cell_x = BOX_X[0] + (cx + 0.5) * dx
    site_rng = np.random.default_rng(cfg.seed + 1)
    n_sites = 6
    sites = BOX_X[0] + (BOX_X[1] - BOX_X[0]) * (
        (np.arange(n_sites) + site_rng.random(n_sites)) / n_sites
    )
    site_width = (BOX_X[1] - BOX_X[0]) / 40.0
    x_weight = np.exp(
        -((cell_x[:, None] - sites[None, :]) / site_width) ** 2
    ).sum(axis=1)
    sheet_weight = np.exp(-((cell_y / SHEET_WIDTH) ** 2)) * (
        x_weight + BACKGROUND_FRACTION
    )
    # Normalize so the global tail fraction is TAIL_FRACTION.
    p_cell = TAIL_FRACTION * sheet_weight / sheet_weight.mean()
    p_cell = np.minimum(p_cell, 0.95)
    # Renormalize after clipping.
    p_cell *= TAIL_FRACTION / max(p_cell.mean(), 1e-12)
    p_particle = np.repeat(p_cell, ppc)

    is_tail = rng.random(n) < p_particle
    energy = THERMAL_SCALE * rng.weibull(THERMAL_SHAPE, n)
    n_tail = int(is_tail.sum())
    energy[is_tail] = TAIL_ONSET + rng.exponential(TAIL_SCALE, n_tail)

    # Momenta: thermal Maxwellian plus bulk flow proportional to sqrt(E)
    # for tail particles (keeps |U| consistent with energy).
    u = rng.normal(0.0, 1.0, (3, n)) * np.sqrt(np.maximum(energy, 1e-6) / 3.0)

    # Cell-order value locality: sort energies (and momenta with them)
    # within each cell, as bulk-flow coherence produces in real data.
    e2 = energy.reshape(n_cells, ppc)
    order = np.argsort(e2, axis=1)
    e2 = np.take_along_axis(e2, order, axis=1)
    energy = e2.reshape(n)
    for k in range(3):
        uk = u[k].reshape(n_cells, ppc)
        u[k] = np.take_along_axis(uk, order, axis=1).reshape(n)

    arrays = {
        "Energy": energy.astype(np.float32),
        "x": x.astype(np.float32),
        "y": y.astype(np.float32),
        "z": z.astype(np.float32),
        "Ux": u[0].astype(np.float32),
        "Uy": u[1].astype(np.float32),
        "Uz": u[2].astype(np.float32),
    }
    return VPICDataset(config=cfg, arrays=arrays)
