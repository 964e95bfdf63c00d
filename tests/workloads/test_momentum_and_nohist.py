"""Coverage for the remaining VPIC variables (Ux/Uy/Uz)."""

import numpy as np
import pytest

from repro.query.ast import Condition, combine_and
from repro.query.executor import QueryEngine
from repro.types import PDCType, QueryOp
from repro.workloads.vpic import VARIABLES, VPICConfig, generate_vpic
from tests.conftest import make_system


def cond(name, op, value):
    return Condition(object_name=name, op=QueryOp(op), pdc_type=PDCType.FLOAT, value=value)


@pytest.fixture(scope="module")
def full_vpic_system():
    ds = generate_vpic(VPICConfig(n_particles=1 << 15))
    sysm = make_system(region_size_bytes=1 << 13)
    for v in VARIABLES:
        sysm.create_object(v, ds.arrays[v])
    return sysm, ds


class TestMomentumVariables:
    def test_all_seven_variables_queryable(self, full_vpic_system):
        sysm, ds = full_vpic_system
        engine = QueryEngine(sysm)
        for v in VARIABLES:
            median = float(np.median(ds.arrays[v]))
            res = engine.execute(cond(v, ">", median))
            truth = int((ds.arrays[v] > np.float32(median)).sum())
            assert res.nhits == truth, v

    def test_momentum_energy_consistency(self, full_vpic_system):
        """High-|U| particles are energetic (the generator ties momentum
        magnitude to energy), so the joint query is non-trivially
        selective but non-empty."""
        sysm, ds = full_vpic_system
        engine = QueryEngine(sysm)
        node = combine_and(cond("Energy", ">", 2.0), cond("Ux", ">", 0.0))
        res = engine.execute(node)
        truth = int(((ds.arrays["Energy"] > 2.0) & (ds.arrays["Ux"] > 0.0)).sum())
        assert res.nhits == truth
        assert 0 < res.nhits < int((ds.arrays["Energy"] > 2.0).sum())

    def test_momentum_distribution_widens_with_energy(self, full_vpic_system):
        _, ds = full_vpic_system
        e, ux = ds.arrays["Energy"], ds.arrays["Ux"]
        hot = np.abs(ux[e > 2.0]).mean()
        cold = np.abs(ux[e < 0.5]).mean()
        assert hot > cold
